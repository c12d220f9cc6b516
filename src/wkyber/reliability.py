"""Decryption-failure analysis and Monte Carlo key-error-rate harness.

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

Powers run right to left over a per-table ladder [X, X^2, X^4, ...] of each
base law, and the same per-call dict keeps each finished k*n-fold power, so a
table computes each distinct power once (119 convolutions, 63.2M mass
products); both noise terms put the secret first, so equal laws have equal
bytes and share a ladder.  The failure tail never forms the noise law: it is
the dot product of one term's masses with suffix and prefix sums of the
other's, again a sum of nonnegative terms.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import compress, decompress
from .params import Q, ParamSet
from .transport import coeff_error_dist

_TRIM_BELOW = 2.0 ** -480      # masses under this are dropped from the ends
_GUARD = 1e-12                 # conservation tolerance
_Z975 = 1.959963984540054      # 0.975 quantile of the standard normal

# smallest centred noise magnitude that can flip a message bit: the two
# decision regions of compress(x, 1) sit 832 = round(q/4) away from the
# encoded points (asymmetrically by one unit, absorbed by the union bound)
FAILURE_BOUND = (Q + 2) // 4


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
        if (self.masses < 0).any():
            raise ValueError("negative mass")

    # -- constructors -------------------------------------------------------

    @classmethod
    def point_mass(cls, value: int = 0) -> "IntDist":
        return cls(value, [1.0])

    @classmethod
    def centered_binomial(cls, eta: int) -> "IntDist":
        """Exact dyadic law of (sum of eta bits) - (sum of eta bits)."""
        return cls(-eta, [math.comb(2 * eta, i) / 4 ** eta
                          for i in range(2 * eta + 1)])

    # -- basic queries -------------------------------------------------------

    @property
    def support(self) -> range:
        return range(self.offset, self.offset + len(self.masses))

    def _values(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + len(self.masses))

    def total_mass(self) -> float:
        return float(self.masses.sum())

    def mass_defect(self) -> float:
        """|1 - total mass|."""
        return abs(self.total_mass() - 1.0)

    def probabilities(self) -> dict:
        return {v: float(m) for v, m in zip(self.support, self.masses) if m}

    def is_symmetric(self) -> bool:
        return (self.offset == -(self.offset + len(self.masses) - 1)
                and np.allclose(self.masses, self.masses[::-1],
                                rtol=1e-12, atol=0.0))

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
        values = np.multiply.outer(self._values(), other._values()).ravel()
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
        x = self._values() + other.offset
        tail = float(self.masses @ (upper[np.clip(bound - x, 0, count)]
                                    + lower[np.clip(1 - bound - x, 0, count)]))
        expected = self.total_mass() * other.total_mass()
        if not (math.isfinite(tail) and 0 <= tail <= expected + _GUARD):
            raise PrecisionLossError("tail outside [0, total mass]")
        return tail


# ---------------------------------------------------------------------------
# error models


def compression_error_dist(d: int) -> IntDist:
    """Exact PMF of decompress(compress(x, d), d) - x over uniform x in
    [0, q); a 3329-point enumeration, no approximation."""
    x = np.arange(Q)
    err = (decompress(compress(x, d), d) - x) % Q
    err[err > Q // 2] -= Q
    lo = int(err.min())
    return IntDist(lo, np.bincount(err - lo) / Q)


def channel_error_intdist(snr_lsb_db: float, variant: str = "exact") -> IntDist:
    """Channel-induced coefficient error law on -3..3 (see
    transport.channel_error_pmf)."""
    return IntDist(-3, coeff_error_dist(snr_lsb_db, variant).pmf)


@dataclass
class ErrorModel:
    """Laws of the terms entering the decryption noise
    e_pk^T s' - s^T e_ct + e_dd (+ compression errors for the baseline)."""

    secret_dist: IntDist          # s and s' coefficients
    pk_error_dist: IntDist        # e (or the channel error on b)
    ct_error_dist: IntDist        # e' (or the channel error on u)
    e_dd_dist: IntDist            # e'' (or the channel error on v)
    compression: tuple | None = None   # (du, dv) iff modeling the baseline

    def validate(self):
        for name in ("secret_dist", "pk_error_dist", "ct_error_dist", "e_dd_dist"):
            dist = getattr(self, name)
            if dist.mass_defect() > 1e-9:
                raise ValueError(f"{name} is not normalised")
        if self.compression is not None:
            du, dv = self.compression
            if not (1 <= du < 12 and 1 <= dv < 12):
                raise ValueError("compression widths outside [1, 12)")


def _noise_terms(params: ParamSet, model: ErrorModel,
                 ladders: dict | None) -> tuple:
    """(key_power, rest), independent, with decryption noise = key_power +
    rest: the k*n-fold convolution of secret*pk_error, and that of
    secret*(ct_error [+ u-compression error]) plus e_dd [+ v-compression
    error].  ladders maps a base's (offset, mass bytes) to its power ladder
    and (that key, k*n) to the power; sharing it computes each power once."""
    model.validate()
    kn = params.k * params.n
    ladders = {} if ladders is None else ladders
    ct_term = model.ct_error_dist
    if model.compression is not None:
        ct_term = ct_term.convolve(compression_error_dist(model.compression[0]))

    def power(base: IntDist) -> IntDist:
        key = (base.offset, base.masses.tobytes())
        if (key, kn) not in ladders:
            ladders[key, kn] = base.convolve_power(
                kn, ladders.setdefault(key, [base]))
        return ladders[key, kn]

    rest = power(model.secret_dist.product(ct_term)).convolve(model.e_dd_dist)
    if model.compression is not None:
        rest = rest.convolve(compression_error_dist(model.compression[1]))
    return power(model.secret_dist.product(model.pk_error_dist)), rest


def noise_distribution(params: ParamSet, model: ErrorModel,
                       ladders: dict | None = None) -> IntDist:
    """Exact law of the per-coefficient decryption noise."""
    key_power, rest = _noise_terms(params, model, ladders)
    return key_power.convolve(rest)


def failure_probability(params: ParamSet, model: ErrorModel,
                        ladders: dict | None = None) -> float:
    """log2 of the message decryption-failure probability.

    Failure mass is P(|noise| >= 832) per coefficient, the tail_of_sum of
    the two noise terms; the message figure is n times that (union bound).
    """
    key_power, rest = _noise_terms(params, model, ladders)
    tail = key_power.tail_of_sum(rest, FAILURE_BOUND)
    return math.log2(params.n * tail) if tail > 0 else float("-inf")


def standard_kyber_model(params: ParamSet) -> ErrorModel:
    """The baseline scheme: binomial errors everywhere plus compression."""
    return ErrorModel(
        secret_dist=IntDist.centered_binomial(params.eta1),
        pk_error_dist=IntDist.centered_binomial(params.eta1),
        ct_error_dist=IntDist.centered_binomial(params.eta2),
        e_dd_dist=IntDist.centered_binomial(params.eta2),
        compression=(params.du, params.dv),
    )


def wkyber_v1_model(params: ParamSet, snr_lsb_db: float,
                    variant: str = "exact",
                    pk_error_eta: int | None = None) -> ErrorModel:
    """V1: binomial key error, channel errors on the ciphertext.

    pk_error_eta defaults to eta1 (the sampling the key generation actually
    performs).  The published failure figures this project reproduces are
    only consistent with the key error drawn at the eta2 range; since
    eta1 == eta2 except at k = 2, the choice is observable only there.
    """
    ch = channel_error_intdist(snr_lsb_db, variant)
    return ErrorModel(
        secret_dist=IntDist.centered_binomial(params.eta1),
        pk_error_dist=IntDist.centered_binomial(
            params.eta1 if pk_error_eta is None else pk_error_eta),
        ct_error_dist=ch,
        e_dd_dist=ch,
    )


def wkyber_v2_model(params: ParamSet, snr_lsb_db: float,
                    variant: str = "exact") -> ErrorModel:
    """V2: the channel supplies the key error as well."""
    ch = channel_error_intdist(snr_lsb_db, variant)
    return ErrorModel(
        secret_dist=IntDist.centered_binomial(params.eta1),
        pk_error_dist=ch,
        ct_error_dist=ch,
        e_dd_dist=ch,
    )


def failure_prob_rows(snr_lsb_db: float = -10.0, reproduce_reference: bool = True):
    """Failure probabilities for every scheme, rank and channel variant.

    Rows: (scheme, k, snr_lsb_db, channel_variant, log2_failure_prob).
    With reproduce_reference the V1 rows draw the key error at eta2 (see
    wkyber_v1_model); pass False for the strictly-as-implemented model.
    """
    from .params import PARAM_SETS
    rows = []
    ladders = {}     # one per table: the rows share their bases' powers
    for bits, params in PARAM_SETS.items():
        rows.append((params.name, params.k, "", "", failure_probability(
            params, standard_kyber_model(params), ladders)))
        for variant in ("exact", "approx"):
            v1 = wkyber_v1_model(
                params, snr_lsb_db, variant,
                pk_error_eta=params.eta2 if reproduce_reference else None)
            rows.append(("wkyber-v1", params.k, snr_lsb_db, variant,
                         failure_probability(params, v1, ladders)))
            v2 = wkyber_v2_model(params, snr_lsb_db, variant)
            rows.append(("wkyber-v2", params.k, snr_lsb_db, variant,
                         failure_probability(params, v2, ladders)))
    return rows


# ---------------------------------------------------------------------------
# channel deviation curve and Monte Carlo KER


def sigma_vs_snr(snr_grid) -> list:
    """(snr_db, standard deviation of the induced coefficient error)."""
    return [(float(snr), coeff_error_dist(float(snr)).stddev())
            for snr in snr_grid]


@dataclass
class KerPoint:
    snr_msb_db: float
    snr_lsb_db: float
    trials: int
    failures: int

    @property
    def ker(self) -> float:
        return self.failures / self.trials

    def interval(self) -> tuple:
        """Two-sided 95% confidence interval of the KER: Wilson's score
        interval, or (0, 1 - 0.025^(1/n)) at zero failures."""
        n, k = self.trials, self.failures
        if not k:
            return 0.0, 1.0 - 0.025 ** (1 / n)
        z2 = _Z975 * _Z975
        centre, half = k + z2 / 2, math.sqrt(z2 * k * (n - k) / n + z2 * z2 / 4)
        return (centre - half) / (n + z2), (centre + half) / (n + z2)

    def __post_init__(self):
        if self.trials < 1 or not 0 <= self.failures <= self.trials:
            raise ValueError(f"need 0 <= failures <= trials and trials >= 1, "
                             f"got {self.failures} of {self.trials}")


def _count_failures(args) -> int:
    version, params, plans, seeds, fo_policy = args
    from .protocol import run_sessions
    return sum(not tr.outcome for tr in run_sessions(version, params, plans,
                                                     seeds, fo_policy=fo_policy))


def ker_monte_carlo(version: str, params: ParamSet, plans, trials: int,
                    seed: int, fo_policy: str = "msb-only",
                    workers: int | None = None) -> KerPoint:
    """Key/message error rate over repeated sessions.

    Per-trial seeds derive from (seed, trial index), so the result does not
    depend on worker scheduling.  At most min(workers, trials, cores)
    processes run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    trial_seeds = [seed * 1_000_003 + i for i in range(trials)]
    # more processes than trials or cores only adds idle forks; the count
    # does not depend on the split
    workers = min(8 if workers is None else workers, trials,
                  os.cpu_count() or 1)
    pk_plan, ct_plan = plans
    if workers > 1 and trials >= 64:
        import multiprocessing as mp
        chunks = [trial_seeds[i::workers] for i in range(workers)]
        with mp.Pool(workers) as pool:
            counts = pool.map(_count_failures,
                              [(version, params, plans, ch, fo_policy)
                               for ch in chunks])
        failures = sum(counts)
    else:
        failures = _count_failures((version, params, plans, trial_seeds,
                                    fo_policy))
    return KerPoint(snr_msb_db=ct_plan.snr_msb_db, snr_lsb_db=ct_plan.snr_lsb_db,
                    trials=trials, failures=failures)
