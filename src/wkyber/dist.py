"""Integer-valued probability laws with float64 masses.

IntDist sums and products are exact: direct convolution (np.convolve) and
an outer product of nonnegative masses, so nothing cancels and each mass
keeps its relative accuracy; ``reliability`` reads the tail of a thousand
such terms by a tilted FFT.  A conservation guard trips if an operation's
total mass drifts by more than 1e-12 or a mass is negative or non-finite.
Every law's masses are read-only for good, so one memoised law serves all.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_GUARD = 1e-12                 # conservation tolerance


class PrecisionLossError(ArithmeticError):
    """Total probability mass drifted beyond the conservation guard."""


class IntDist:
    """Integer-valued distribution on a contiguous support with float64
    masses.  Instances are immutable; operations return new distributions."""

    __slots__ = ("offset", "masses")

    def __init__(self, offset: int, masses):
        self.offset = int(offset)
        # an array over bytes: read-only, and no caller can make it writeable
        self.masses = np.frombuffer(np.asarray(masses, np.float64).tobytes())
        if not self.masses.size:
            raise ValueError("empty distribution")
        if not np.isfinite(self.masses).all():
            raise ValueError("non-finite mass")
        if (self.masses < 0).any():
            raise ValueError("negative mass")

    @classmethod
    @functools.cache
    def centered_binomial(cls, eta: int) -> "IntDist":
        """Exact dyadic law of (sum of eta bits) - (sum of eta bits)."""
        return cls(-eta, [math.comb(2 * eta, i) / 4 ** eta
                          for i in range(2 * eta + 1)])

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

    def _checked(self, other: "IntDist", offset: int, masses, op: str):
        """The result if its mass is the operands' product (a NaN mass fails
        both comparisons, an infinite one the second)."""
        expected = self.total_mass() * other.total_mass()
        if not (masses.min() >= 0
                and abs(float(masses.sum()) - expected) <= _GUARD):
            raise PrecisionLossError(f"mass conservation violated in {op}")
        masses.flags.writeable = False   # and so for good in its views
        out = IntDist.__new__(IntDist)   # checked and owned: no second copy
        out.offset, out.masses = int(offset), masses[...]
        return out

    def convolve(self, other: "IntDist") -> "IntDist":
        """Distribution of X + Y for independent X, Y (direct convolution)."""
        return self._checked(other, self.offset + other.offset, np.convolve(
            self.masses, other.masses), "convolve")

    def product(self, other: "IntDist") -> "IntDist":
        """Distribution of X * Y for independent X, Y."""
        values = np.multiply.outer(self.support, other.support).ravel()
        lo = int(values.min())
        acc = np.bincount(values - lo, weights=np.multiply.outer(
            self.masses, other.masses).ravel())
        return self._checked(other, lo, acc, "product")
