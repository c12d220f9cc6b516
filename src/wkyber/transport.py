"""Physical-layer transport of 12-bit ring coefficients.

Each coefficient w in [0, 4095] splits into the 10 most significant bits
w10 = w >> 2 and the 2 least significant bits w2 = w & 3.  The w10 word is
BCH(31,11)-encoded (leading message bit zero), sent MSB-first with one zero
pad bit as 16 4QAM symbols on the protected path; w2 rides a single symbol
on the low-SNR path.  17 symbols per coefficient, coefficient-major order:
this is the wire contract for both protocol versions.

Given a successful BCH decode the only surviving perturbation is on w2, so
the induced coefficient error lives on {-3..3} with a PMF determined by the
single-symbol bit error probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bch
from .modem import (ChannelPlan, NoiseSource, ber_4qam, demodulate_symbols,
                    modulate_words, snr_db_to_linear, transmit)
from .params import Q

SYMBOLS_PER_BLOCK = 16   # 31 codeword bits + 1 pad bit
SYMBOLS_PER_COEFF = SYMBOLS_PER_BLOCK + 1

ERROR_OFFSETS = np.arange(-3, 4)


@dataclass
class Frame:
    """Channel symbols for a batch of coefficients.

    msb holds 16 symbols per coefficient (BCH path), lsb one per coefficient,
    both coefficient-major.
    """

    msb: np.ndarray
    lsb: np.ndarray

    @property
    def count(self) -> int:
        return len(self.lsb)

    def __post_init__(self):
        if len(self.msb) != SYMBOLS_PER_BLOCK * len(self.lsb):
            raise ValueError("frame must hold 17 symbols per coefficient")


# ---------------------------------------------------------------------------
# block (w10) path, shared with out-of-band data such as matrix seeds


def _build_block_symbol_table() -> np.ndarray:
    """Clean 16-symbol sequence per 11-bit message: codeword bits MSB-first
    plus one zero pad bit, the first bit of every pair being the high bit of
    its symbol."""
    cw = bch.ENCODE_TABLE
    shifts = np.arange(30, -1, -1)
    bits = (cw[:, None] >> shifts) & 1
    bits = np.concatenate([bits, np.zeros((len(cw), 1), dtype=np.int64)], axis=1)
    pairs = bits.reshape(len(cw), SYMBOLS_PER_BLOCK, 2)
    return modulate_words(2 * pairs[:, :, 0] + pairs[:, :, 1])


_BLOCK_SYMBOLS = _build_block_symbol_table()


def _words_to_block_symbols(w10: np.ndarray) -> np.ndarray:
    return _BLOCK_SYMBOLS[np.asarray(w10, dtype=np.int64)].ravel()


def _block_symbols_to_words(symbols: np.ndarray):
    """Demodulate, reassemble 31-bit words, decode.

    Returns (w10 array, per-block decode-failure mask).  On failure the
    uncorrected systematic bits are used as-is.
    """
    words = demodulate_symbols(symbols)
    # 16 two-bit words are 32 bits MSB-first; the shift drops the pad bit
    received = (words.reshape(-1, SYMBOLS_PER_BLOCK)
                << np.arange(30, -1, -2)).sum(axis=1) >> 1
    msgs, _, failed = bch.decode_words(received)
    return msgs & 0x3FF, failed


def send_blocks(w10: np.ndarray, snr_msb_db: float, noise: NoiseSource) -> np.ndarray:
    return transmit(_words_to_block_symbols(w10), snr_msb_db, noise)


def receive_blocks(symbols: np.ndarray, count: int):
    """Returns (decoded 10-bit words, per-block decode-failure mask)."""
    if len(symbols) != SYMBOLS_PER_BLOCK * count:
        raise ValueError("malformed block segment length")
    return _block_symbols_to_words(symbols)


# ---------------------------------------------------------------------------
# full coefficient path


def send_coeffs(coeffs, plan: ChannelPlan, noise: NoiseSource) -> Frame:
    """Transmit coefficients (< q) as 16 protected + 1 exposed symbol each,
    in row-major order whatever the array's shape.

    Both paths draw from the same noise source, MSB segment first; with equal
    seeds the frame is bit-identical across runs.
    """
    c = np.asarray(coeffs, dtype=np.int64).ravel()
    if c.size and (c.min() < 0 or c.max() >= Q):
        raise ValueError("coefficients must lie in [0, q)")
    msb = send_blocks(c >> 2, plan.snr_msb_db, noise)
    lsb = transmit(modulate_words(c & 3), plan.snr_lsb_db, noise)
    return Frame(msb=msb, lsb=lsb)


def receive_coeffs(frame: Frame, count: int):
    """Reassemble 4*w10 + w2 mod q from a received frame.

    Returns (coefficient array, BCH decode failure count).  Values >= q
    (possible when a stored coefficient near q-1 shifts upward, or after a
    miscorrection) wrap mod q; the wrap is part of the modelled noise.
    """
    if frame.count != count:
        raise ValueError("frame length does not match coefficient count")
    w10, failed = receive_blocks(frame.msb, count)
    w2 = demodulate_symbols(frame.lsb)
    return (4 * w10 + w2) % Q, int(failed.sum())


# ---------------------------------------------------------------------------
# induced per-coefficient error distribution


@dataclass(frozen=True)
class CoeffErrorDist:
    """PMF of the coefficient offset e in {-3..3} caused by the w2 path."""

    pmf: np.ndarray  # indexed by ERROR_OFFSETS

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=float)
        if p.shape != (7,):
            raise ValueError("PMF must cover offsets -3..3")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"PMF sums to {p.sum()!r}, not 1")
        if (p < 0).any():
            raise ValueError("negative mass")
        if not np.allclose(p, p[::-1], rtol=0, atol=1e-15):
            raise ValueError("PMF must be symmetric")

    def as_dict(self) -> dict:
        return {int(e): float(m) for e, m in zip(ERROR_OFFSETS, self.pmf)}

    def stddev(self) -> float:
        return math.sqrt(float((ERROR_OFFSETS.astype(float) ** 2 * self.pmf).sum()))


def channel_error_pmf(p_b: float, variant: str = "exact") -> CoeffErrorDist:
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
    pmf = np.array([masses[abs(int(e))] for e in ERROR_OFFSETS])
    return CoeffErrorDist(pmf)


def coeff_error_dist(snr_lsb_db: float, variant: str = "exact") -> CoeffErrorDist:
    """Error PMF induced on a coefficient by the w2 path at the given SNR."""
    return channel_error_pmf(ber_4qam(snr_db_to_linear(snr_lsb_db)), variant)


def dist_stddev(d: CoeffErrorDist) -> float:
    """sqrt(sum e^2 pmf(e)); the mean vanishes by symmetry."""
    return d.stddev()


def cbd_pmf_padded(eta: int) -> np.ndarray:
    """Centered binomial PMF laid out on the -3..3 offset grid, for direct
    comparison against the channel PMF."""
    pmf = np.zeros(7)
    for i in range(-eta, eta + 1):
        pmf[i + 3] = math.comb(2 * eta, i + eta) / 4.0 ** eta
    return pmf
