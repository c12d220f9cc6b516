"""Decryption-failure analysis and Monte Carlo key-error-rate harness.

The per-coefficient decryption noise is a sum of thousands of independent
small terms; each term's law is an IntDist (see ``dist``).  Powers run right
to left over a per-table ladder [X, X^2, X^4, ...] of each base law, and the
same per-call dict keeps each finished k*n-fold power, so a table computes
each distinct power once (119 convolutions, 63.2M mass products); both noise
terms put the secret first, so equal laws have equal bytes and share a
ladder.  The failure tail never forms the noise law: it is the dot product
of one term's masses with suffix and prefix sums of the other's, again a sum
of nonnegative terms.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import compress, decompress
# re-exported until ROADMAP item 1 points perfbench's trace site
# reliability.IntDist at dist; cli and tests import both from dist
from .dist import IntDist, PrecisionLossError  # noqa: F401
from .params import Q, ParamSet
from .protocol import run_sessions
from .transport import coeff_error_dist, dist_stddev

_Z975 = 1.959963984540054      # 0.975 quantile of the standard normal

# smallest centred noise magnitude that can flip a message bit: the two
# decision regions of compress(x, 1) sit 832 = round(q/4) away from the
# encoded points (asymmetrically by one unit, absorbed by the union bound)
FAILURE_BOUND = (Q + 2) // 4


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
            if not dist.mass_defect() <= 1e-9:
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
    ch = coeff_error_dist(snr_lsb_db, variant)
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
    ch = coeff_error_dist(snr_lsb_db, variant)
    return ErrorModel(
        secret_dist=IntDist.centered_binomial(params.eta1),
        pk_error_dist=ch,
        ct_error_dist=ch,
        e_dd_dist=ch,
    )


def failure_prob_rows(snr_lsb_db: float = -10.0):
    """Failure probabilities for every scheme, rank and channel variant.

    Rows: (scheme, k, snr_lsb_db, channel_variant, log2_failure_prob).
    The V1 rows draw the key error at eta2, as the published figures do
    (see wkyber_v1_model).
    """
    from .params import PARAM_SETS
    rows = []
    ladders = {}     # one per table: the rows share their bases' powers
    for bits, params in PARAM_SETS.items():
        rows.append((params.name, params.k, "", "", failure_probability(
            params, standard_kyber_model(params), ladders)))
        for variant in ("exact", "approx"):
            v1 = wkyber_v1_model(params, snr_lsb_db, variant,
                                 pk_error_eta=params.eta2)
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
    return [(float(snr), dist_stddev(coeff_error_dist(float(snr))))
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
    rec = run_sessions(version, params, plans, seeds, fo_policy=fo_policy)
    return int((~rec.outcome).sum())


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
