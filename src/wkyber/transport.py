"""Physical-layer transport of 12-bit ring coefficients.

Each coefficient w in [0, q) splits into the 10 most significant bits
w10 = w >> 2 and the 2 least significant bits w2 = w & 3.  The w10 word is
BCH(31,11)-encoded (leading message bit zero), sent MSB-first with one zero
pad bit as 16 4QAM symbols on the protected path; w2 rides a single symbol
on the low-SNR path.  17 symbols per coefficient, coefficient-major order:
this is the wire contract for both protocol versions.

The simulator samples that wire's hard-decision equivalent (see ``modem``):
a received block is its 31-bit codeword XOR a flip mask, a received w2 the
sent bits XOR a 2-bit mask, each bit flipping with its path's ber_4qam.

Given a successful BCH decode the only surviving perturbation is on w2, so
the induced coefficient error lives on {-3..3} with a PMF determined by the
single-symbol bit error probability.
"""

from __future__ import annotations

import math

import numpy as np

from . import bch
from .dist import IntDist
from .modem import ChannelPlan, NoiseSource, ber_4qam, snr_db_to_linear
from .params import Q


def bit_error_prob(snr_db: float) -> float:
    """Crossover of each hard-decided 4QAM bit; 0 at +inf dB."""
    return ber_4qam(snr_db_to_linear(snr_db))


# ---------------------------------------------------------------------------
# block (w10) path, shared with out-of-band data such as matrix seeds


def send_blocks(w10: np.ndarray, snr_msb_db: float, noise: NoiseSource) -> np.ndarray:
    """Received 31-bit words of the BCH-encoded 10-bit messages w10."""
    cw = bch.ENCODE_TABLE[np.asarray(w10, dtype=np.int64)]
    return cw ^ noise.flips(len(cw), bch.CODE_N, bit_error_prob(snr_msb_db))


def receive_blocks(words: np.ndarray, count: int):
    """Decode received 31-bit words.

    Returns (decoded 10-bit words, per-block decode-failure mask).  On
    failure the uncorrected systematic bits are used as-is.
    """
    if len(words) != count:
        raise ValueError("malformed block segment length")
    msgs, _, failed = bch.decode_words(words)
    return msgs & 0x3FF, failed


# ---------------------------------------------------------------------------
# full coefficient path


def send_coeffs(coeffs, plan: ChannelPlan, noise: NoiseSource):
    """Transmit coefficients (< q) as a protected block and an exposed 2-bit
    word each, in row-major order whatever the array's shape.  Returns the
    received (msb, lsb) words: one 31-bit BCH word and one 2-bit word per
    coefficient.

    Both paths draw from the same noise source, protected path first; with
    equal seeds the received words are identical across runs.
    """
    c = np.asarray(coeffs, dtype=np.int64).ravel()
    if c.size and (c.min() < 0 or c.max() >= Q):
        raise ValueError("coefficients must lie in [0, q)")
    msb = send_blocks(c >> 2, plan.snr_msb_db, noise)
    lsb = (c & 3) ^ noise.flips(c.size, 2, bit_error_prob(plan.snr_lsb_db))
    return msb, lsb


def join_coeffs(w10: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Reassemble 4*w10 + w2 mod q from decoded words.  Values >= q
    (possible when a stored coefficient near q-1 shifts upward, or after a
    miscorrection) wrap mod q; the wrap is part of the modelled noise."""
    return (4 * w10 + w2) % Q


# ---------------------------------------------------------------------------
# induced per-coefficient error distribution


def channel_error_pmf(p_b: float, variant: str = "exact") -> IntDist:
    """Coefficient error PMF for a given per-bit flip probability.

    "exact" averages over the four equally likely transmitted w2 values and
    the sixteen (sent, received) transitions:

        P(0)  = (1-p)^2          P(+-1) = p(1-p)/2 + p^2/4
        P(+-2) = p(1-p)/2        P(+-3) = p^2/4

    "approx" is a coarser closed form that quarters P(0) and counts the
    double-flip contribution to |e| = 1 at four times the exact rate; its
    cases do not sum to one, so it is renormalised here.  Both weightings
    are exposed because downstream reliability figures exist for each.
    """
    if not 0.0 <= p_b <= 1.0:
        raise ValueError("bit error probability outside [0, 1]")
    p = float(p_b)
    half = p * (1.0 - p) / 2.0
    if variant == "exact":
        masses = {0: (1.0 - p) ** 2,
                  1: half + p * p / 4.0,
                  2: half,
                  3: p * p / 4.0}
    elif variant == "approx":
        masses = {0: (1.0 - p) ** 2 / 4.0,
                  1: half + p * p,
                  2: half,
                  3: p * p / 4.0}
        total = masses[0] + 2 * (masses[1] + masses[2] + masses[3])
        masses = {e: m / total for e, m in masses.items()}
    else:
        raise ValueError(f"unknown channel PMF variant {variant!r}")
    return IntDist(-3, [masses[abs(e)] for e in range(-3, 4)])


def coeff_error_dist(snr_lsb_db: float, variant: str = "exact") -> IntDist:
    """Error PMF induced on a coefficient by the w2 path at the given SNR."""
    return channel_error_pmf(bit_error_prob(snr_lsb_db), variant)


def dist_stddev(d: IntDist) -> float:
    """sqrt(sum e^2 pmf(e)); the mean vanishes by symmetry."""
    e = np.array(d.support, dtype=float)
    return math.sqrt(float((e ** 2 * d.masses).sum()))
