"""Integer-valued probability laws with float64 masses.

The per-coefficient decryption noise is a sum of thousands of independent
small terms; its tail mass near q/4 sits around 2^-230.  IntDist holds the
probability masses as float64 arrays and convolves them directly
(np.convolve, never FFT): every term is a nonnegative product, so the sums
never cancel and each mass keeps its relative accuracy (about n * 2^-53 for
n summed terms) however far into the tail it lies.  An FFT convolution
would instead carry an absolute error near 2^-53 times the peak mass and
lose the tail.  This is the method of the Kyber team's own failure script
(Bos et al., "CRYSTALS-Kyber", EuroS&P 2018).  Tails below 2^-480 are
trimmed; a conservation guard trips if an operation's total mass drifts by
more than 1e-12 or produces a negative or non-finite mass.
"""

from __future__ import annotations

import math

import numpy as np

_TRIM_BELOW = 2.0 ** -480      # masses under this are dropped from the ends
_GUARD = 1e-12                 # conservation tolerance


class PrecisionLossError(ArithmeticError):
    """Total probability mass drifted beyond the conservation guard."""


class IntDist:
    """Integer-valued distribution on a contiguous support with float64
    masses.  Instances are immutable; operations return new distributions."""

    __slots__ = ("offset", "masses")

    def __init__(self, offset: int, masses):
        self.offset = int(offset)
        self.masses = np.array(masses, dtype=np.float64).ravel()
        if not self.masses.size:
            raise ValueError("empty distribution")
        if not np.isfinite(self.masses).all():
            raise ValueError("non-finite mass")
        if (self.masses < 0).any():
            raise ValueError("negative mass")

    # -- constructors -------------------------------------------------------

    @classmethod
    def centered_binomial(cls, eta: int) -> "IntDist":
        """Exact dyadic law of (sum of eta bits) - (sum of eta bits)."""
        return cls(-eta, [math.comb(2 * eta, i) / 4 ** eta
                          for i in range(2 * eta + 1)])

    # -- basic queries -------------------------------------------------------

    @property
    def support(self) -> np.ndarray:
        """The support's integers in order, one per mass, as int64."""
        return np.arange(self.offset, self.offset + len(self.masses))

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def mass_defect(self) -> float:
        """|1 - total mass|."""
        return abs(self.total_mass() - 1.0)

    def as_dict(self) -> dict:
        """Every support value mapped to its mass, zeros included."""
        return dict(zip(self.support.tolist(), self.masses.tolist()))

    # -- arithmetic ----------------------------------------------------------

    def _checked(self, other: "IntDist", offset: int, masses: np.ndarray,
                 op: str) -> "IntDist":
        """Trimmed result of a binary operation whose output mass must
        equal the product of the operands' masses.  One min and one sum:
        a NaN fails both comparisons, an infinity fails the second."""
        expected = self.total_mass() * other.total_mass()
        if not (masses.min() >= 0
                and abs(float(masses.sum()) - expected) <= _GUARD):
            raise PrecisionLossError(f"mass conservation violated in {op}")
        keep = np.flatnonzero(masses >= _TRIM_BELOW)
        if keep.size:   # a copy: a cached power keeps no untrimmed buffer
            offset += keep[0]
            masses = masses[keep[0]:keep[-1] + 1].copy()
        out = IntDist.__new__(IntDist)   # checked and owned: no second copy
        out.offset, out.masses = int(offset), masses
        return out

    def convolve(self, other: "IntDist") -> "IntDist":
        """Distribution of X + Y for independent X, Y (direct convolution)."""
        out = np.convolve(self.masses, other.masses)
        return self._checked(other, self.offset + other.offset, out, "convolve")

    def product(self, other: "IntDist") -> "IntDist":
        """Distribution of X * Y for independent X, Y."""
        values = np.multiply.outer(self.support, other.support).ravel()
        lo = int(values.min())
        acc = np.bincount(values - lo, weights=np.multiply.outer(
            self.masses, other.masses).ravel())
        return self._checked(other, lo, acc, "product")

    def convolve_power(self, times: int, squares: list | None = None) -> "IntDist":
        """times-fold self-convolution, right to left over the ladder
        squares = [X, X^2, X^4, ...] of this law.  Missing rungs are
        appended in place, so callers sharing a ladder square each power
        once."""
        if times < 1:
            raise ValueError("need at least one copy")
        if squares is None:
            squares = [self]
        acc = None
        for rung in range(times.bit_length()):
            if rung == len(squares):
                squares.append(squares[-1].convolve(squares[-1]))
            if times >> rung & 1:
                acc = squares[rung] if acc is None else acc.convolve(squares[rung])
        return acc

    # -- tails ---------------------------------------------------------------

    def tail_of_sum(self, other: "IntDist", bound: int) -> float:
        """P(|X + Y| >= bound) for independent X, Y and bound >= 1, read
        without forming the law of X + Y: the dot product of X's masses
        with P(Y >= bound - x) + P(Y <= -bound - x), taken from suffix and
        prefix sums of Y's masses.  Every term is nonnegative."""
        count = len(other.masses)
        upper = np.append(np.cumsum(other.masses[::-1])[::-1], 0.0)
        lower = np.append(0.0, np.cumsum(other.masses))
        x = self.support + other.offset
        tail = float(self.masses @ (upper[np.clip(bound - x, 0, count)]
                                    + lower[np.clip(1 - bound - x, 0, count)]))
        expected = self.total_mass() * other.total_mass()
        if not (math.isfinite(tail) and 0 <= tail <= expected + _GUARD):
            raise PrecisionLossError("tail outside [0, total mass]")
        return tail
