"""Gray-coded 4QAM over a memoryless AWGN channel.

Energy per bit is normalised to 1, so a symbol is (+-1, +-1) and the SNR in
dB fixes the noise variance alone: Eb/N0 = 10^(snr/10), per-component
variance N0/2.  Corner assignment (wire-format law):

    (+,+) <-> 00    (-,+) <-> 01    (-,-) <-> 11    (+,-) <-> 10

i.e. the low bit selects the I sign and the high bit the Q sign; adjacent
quadrants differ in exactly one bit.

A sign decision on I and on Q, whose noise is independent, passes each bit
through its own binary symmetric channel with crossover p = Q(sqrt(2 Eb/N0)),
``bit_error_prob``.  Sessions sample those bit flips (``flip_masks``); the
symbol functions and ``NoiseSource.pairs`` are the physical reference the
BER checks measure.  Both models take Eb/N0 from one rule, ``_eb_n0``, so
both refuse the same SNRs with ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_range


@dataclass(frozen=True)
class ChannelPlan:
    """SNR pair for one transmission: BCH-protected path / raw 2-bit path."""

    snr_msb_db: float
    snr_lsb_db: float


class NoiseSource:
    """Seeded channel noise, as Gaussian symbols or as bit flips; one owner
    per thread."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def pairs(self, n: int, sigma: float) -> np.ndarray:
        """n complex samples, per-component deviation sigma."""
        # (re, im) pairs of one draw, as normal(0, sigma, 2n) would give
        flat = self._rng.standard_normal(2 * n)
        flat *= sigma
        return flat.view(np.complex128)

    def flips(self, total: int, p: float) -> np.ndarray:
        """Positions in [0, total) of the bits that flip, each with
        probability p: a binomial(total, p) number of distinct uniform
        positions, exact (Devroye 1986); total = 0 or p = 0 draws nothing."""
        flipped = self._rng.binomial(total, p)
        if not flipped:   # most calls; an empty choice costs ~10x the binomial
            return np.zeros(0, dtype=np.int64)
        return self._rng.choice(total, flipped, replace=False)


def flip_masks(noises, fields) -> np.ndarray:
    """(B, words) int64 flip masks, one row per noise source.  fields lists
    (count, width, p): count words of width bits, each bit set with
    probability p, side by side in every row.  Each source draws its fields
    in order with NoiseSource.flips; one bincount builds every mask."""
    words = sum(count for count, _, _ in fields)
    if not noises:   # np.concatenate refuses an empty list
        return np.zeros((0, words), dtype=np.int64)
    starts = np.cumsum([0] + [count for count, _, _ in fields[:-1]])
    pos = [noise.flips(count * width, p)
           for noise in noises for count, width, p in fields]
    sizes = [len(x) for x in pos]
    width = np.repeat([w for _, w, _ in fields] * len(noises), sizes)
    word, bit = np.divmod(np.concatenate(pos), width)
    word += np.repeat(starts + words * np.arange(len(noises))[:, None], sizes)
    # the positions are distinct, so summing a word's bits ORs them, and
    # float64 weights hold the sums exactly for widths below 53
    return np.bincount(word, weights=np.left_shift(1, bit),
                       minlength=len(noises) * words).astype(
                           np.int64).reshape(len(noises), words)


def _eb_n0(snr_db: float) -> float:
    """Eb/N0 = 10^(snr/10).  ValueError for every SNR it cannot price: NaN,
    -inf, or past about -3236..3082 dB, where Eb/N0 leaves the floats."""
    try:
        eb_n0 = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        eb_n0 = math.nan
    if not eb_n0 > 0:
        raise ValueError("Eb/N0 must be positive and a float (or +inf)")
    return eb_n0


def modulate_words(words: np.ndarray) -> np.ndarray:
    """Vector Gray mapping of 2-bit words onto the four quadrants."""
    w = check_range(words, 4, "2-bit words")
    return (1.0 - 2.0 * (w & 1)) + 1j * (1.0 - 2.0 * (w >> 1))


def demodulate_symbols(symbols: np.ndarray) -> np.ndarray:
    """Quadrant decision; sign ties go to the positive side."""
    s = np.asarray(symbols)
    return ((s.real < 0).astype(np.int64)
            + 2 * (s.imag < 0).astype(np.int64))


def transmit(symbols: np.ndarray, snr_db: float, noise: NoiseSource) -> np.ndarray:
    """y = s + n, i.i.d. Gaussian components of variance N0/2 (0 at +inf)."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    out = noise.pairs(len(symbols), math.sqrt(1.0 / (2.0 * _eb_n0(snr_db))))
    out += symbols
    return out


def bit_error_prob(snr_db: float) -> float:
    """Crossover Q(sqrt(2 Eb/N0)) of each hard-decided bit of Gray-coded 4QAM
    on AWGN; 0 at +inf dB.  ValueError where _eb_n0 refuses the SNR."""
    return 0.5 * math.erfc(math.sqrt(2.0 * _eb_n0(snr_db)) / math.sqrt(2.0))
