"""Gray-coded 4QAM over a memoryless AWGN channel.

Energy per bit is normalised to 1, so a symbol is (+-1, +-1) and the SNR in
dB fixes the noise variance alone: Eb/N0 = 10^(snr/10), per-component
variance N0/2.  Corner assignment (wire-format law):

    (+,+) <-> 00    (-,+) <-> 01    (-,-) <-> 11    (+,-) <-> 10

i.e. the low bit selects the I sign and the high bit the Q sign; adjacent
quadrants differ in exactly one bit.

A sign decision on I and on Q, whose noise is independent, passes each bit
through its own binary symmetric channel with crossover ``ber_4qam``, so
sessions sample bit flips (``NoiseSource.flips``); the symbol functions and
``NoiseSource.pairs`` are the physical reference the BER checks measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelPlan:
    """SNR pair for one transmission: BCH-protected path / raw 2-bit path."""

    snr_msb_db: float
    snr_lsb_db: float


class NoiseSource:
    """Seeded channel noise, as Gaussian symbols or as bit flips; one owner
    per thread."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def pairs(self, n: int, sigma: float) -> np.ndarray:
        """n complex samples, per-component deviation sigma."""
        # (re, im) pairs of one draw, as normal(0, sigma, 2n) would give
        flat = self._rng.standard_normal(2 * n)
        flat *= sigma
        return flat.view(np.complex128)

    def flips(self, count: int, width: int, p: float) -> np.ndarray:
        """count int64 masks of width bits, each bit set independently with
        probability p: a binomial(count * width, p) number of flips at
        distinct uniform positions, exact (Devroye 1986); p = 0 draws nothing.
        """
        total = count * width
        flipped = self._rng.binomial(total, p)   # draws nothing when p = 0
        if not flipped:   # choice would draw nothing either
            return np.zeros(count, dtype=np.int64)
        pos = self._rng.choice(total, flipped, replace=False)
        word, bit = np.divmod(pos, width)
        # the positions are distinct, so summing a word's bits ORs them, and
        # float64 weights hold the sums exactly for widths below 53
        return np.bincount(word, weights=np.left_shift(1, bit),
                           minlength=count).astype(np.int64)


def snr_db_to_linear(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def noise_sigma(snr_db: float) -> float:
    """Per-component noise deviation sqrt(N0/2) for Eb = 1."""
    return math.sqrt(1.0 / (2.0 * snr_db_to_linear(snr_db)))


def modulate_words(words: np.ndarray) -> np.ndarray:
    """Vector Gray mapping of 2-bit words onto the four quadrants."""
    w = np.asarray(words)
    if w.min(initial=0) < 0 or w.max(initial=0) > 3:
        raise ValueError("2-bit words expected")
    return (1.0 - 2.0 * (w & 1)) + 1j * (1.0 - 2.0 * (w >> 1))


def demodulate_symbols(symbols: np.ndarray) -> np.ndarray:
    """Quadrant decision; sign ties go to the positive side."""
    s = np.asarray(symbols)
    return ((s.real < 0).astype(np.int64)
            + 2 * (s.imag < 0).astype(np.int64))


def transmit(symbols: np.ndarray, snr_db: float, noise: NoiseSource) -> np.ndarray:
    """y = s + n with i.i.d. Gaussian components of variance N0/2."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if math.isinf(snr_db) and snr_db > 0:
        return symbols.copy()
    out = noise.pairs(len(symbols), noise_sigma(snr_db))
    out += symbols
    return out


# ---------------------------------------------------------------------------
# closed-form error rates


def q_function(x: float) -> float:
    """Gaussian upper-tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ber_4qam(eb_n0: float) -> float:
    """Bit error probability Q(sqrt(2 Eb/N0)) of Gray-coded 4QAM on AWGN."""
    if eb_n0 <= 0:
        raise ValueError("Eb/N0 must be positive")
    return q_function(math.sqrt(2.0 * eb_n0))

