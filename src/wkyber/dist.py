"""Integer-valued probability laws with float64 masses.

The per-coefficient decryption noise is a sum of thousands of independent
small terms; its tail mass near q/4 sits around 2^-230.  IntDist holds the
probability masses as float64 arrays and convolves them directly
(np.convolve, never FFT): every term is a nonnegative product, so the sums
never cancel and each mass keeps its relative accuracy (about n * 2^-53 for
n summed terms) however far into the tail it lies.  An FFT convolution
would instead carry an absolute error near 2^-53 times the peak mass and
lose the tail.  This is the method of the Kyber team's own failure script
(Bos et al., "CRYSTALS-Kyber", EuroS&P 2018).  Each convolution or product
trims the end masses below its trim (2^-480 unless the caller passes
another) and adds them to the result's ``lost``, an upper bound on the mass
the exact law holds beyond the stored masses; the stored masses never
exceed the exact ones, so an exact tail lies between a computed tail and
that tail plus its operands' ``lost``.  A conservation guard trips if an
operation's total mass drifts by more than 1e-12 or produces a negative or
non-finite mass.
"""

from __future__ import annotations

import math

import numpy as np

TRIM = 2.0 ** -480             # default trim: end masses under it are dropped
_GUARD = 1e-12                 # conservation tolerance


class PrecisionLossError(ArithmeticError):
    """Total probability mass drifted beyond the conservation guard."""


class IntDist:
    """Integer-valued distribution on a contiguous support with float64
    masses.  Instances are immutable; operations return new distributions.
    lost bounds the exact law's mass beyond the stored masses: 0 for a
    constructed law."""

    __slots__ = ("offset", "masses", "lost")

    def __init__(self, offset: int, masses):
        self.offset = int(offset)
        self.masses = np.array(masses, dtype=np.float64).ravel()
        self.lost = 0.0
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
                 op: str, trim: float) -> "IntDist":
        """Result of a binary operation whose output mass must equal the
        product of the operands' masses, its end masses below trim dropped
        into lost.  One min and one sum: a NaN fails both comparisons, an
        infinity fails the second."""
        expected = self.total_mass() * other.total_mass()
        if not (masses.min() >= 0
                and abs(float(masses.sum()) - expected) <= _GUARD):
            raise PrecisionLossError(f"mass conservation violated in {op}")
        lost = self.lost + other.lost
        keep = np.flatnonzero(masses >= trim)
        if keep.size:   # a copy: a cached power keeps no untrimmed buffer
            lo, hi = keep[0], keep[-1] + 1
            lost += float(masses[:lo].sum() + masses[hi:].sum())
            offset += lo
            masses = masses[lo:hi].copy()
        out = IntDist.__new__(IntDist)   # checked and owned: no second copy
        out.offset, out.masses, out.lost = int(offset), masses, lost
        return out

    def convolve(self, other: "IntDist", trim: float = TRIM) -> "IntDist":
        """Distribution of X + Y for independent X, Y (direct convolution)."""
        out = np.convolve(self.masses, other.masses)
        return self._checked(other, self.offset + other.offset, out,
                             "convolve", trim)

    def product(self, other: "IntDist", trim: float = TRIM) -> "IntDist":
        """Distribution of X * Y for independent X, Y."""
        values = np.multiply.outer(self.support, other.support).ravel()
        lo = int(values.min())
        acc = np.bincount(values - lo, weights=np.multiply.outer(
            self.masses, other.masses).ravel())
        return self._checked(other, lo, acc, "product", trim)

    def convolve_power(self, times: int, squares: list | None = None,
                       trim: float = TRIM) -> "IntDist":
        """times-fold self-convolution, right to left over the ladder
        squares = [X, X^2, X^4, ...] of this law.  Missing rungs are
        appended in place, so callers sharing a ladder (at one trim) square
        each power once."""
        if times < 1:
            raise ValueError("need at least one copy")
        if squares is None:
            squares = [self]
        acc = None
        for rung in range(times.bit_length()):
            if rung == len(squares):
                squares.append(squares[-1].convolve(squares[-1], trim))
            if times >> rung & 1:
                acc = (squares[rung] if acc is None
                       else acc.convolve(squares[rung], trim))
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
