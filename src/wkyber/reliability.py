"""Decryption-failure analysis and Monte Carlo key-error-rate harness.

The per-coefficient decryption noise is a sum of thousands of independent
small terms; each term's law is an IntDist (see ``dist``).  Powers run right
to left over a per-table ladder [X, X^2, X^4, ...] of each base law and
trim, and the same per-call dict keeps each finished k*n-fold power, so a
table computes each distinct power once; both noise terms put the secret
first, so equal laws have equal bytes and share a ladder.  The failure tail
never forms the noise law: it is the dot product of one term's masses with
suffix and prefix sums of the other's, again a sum of nonnegative terms.
Each row is computed at a 2^-340 trim first and kept when the trimmed mass
bound is at most 2^-40 of its tail (a log2 error below 1.3e-12); otherwise
it is recomputed at 2^-480.  Every row of the -10 dB table keeps its first
rung: 119 convolutions, 42.7M mass products.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .core import centered, compress, decompress
# re-exported until ROADMAP item 2 points perfbench's trace site
# reliability.IntDist at dist; cli and tests import both from dist
from .dist import TRIM, IntDist, PrecisionLossError  # noqa: F401
from .params import N, PARAM_SETS, Q, ParamSet
from .protocol import run_sessions
from .transport import coeff_error_dist, dist_stddev

_Z975 = 1.959963984540054      # 0.975 quantile of the standard normal

# smallest centred noise magnitude that can flip a message bit: the two
# decision regions of compress(x, 1) sit 832 = round(q/4) away from the
# encoded points (asymmetrically by one unit, absorbed by the union bound)
FAILURE_BOUND = (Q + 2) // 4

# a row's trims, coarse first, and the share of its tail the mass trimmed
# there may reach before the row moves to the next trim
_TRIMS = (2.0 ** -340, TRIM)
_CERTIFIED = 2.0 ** -40


# ---------------------------------------------------------------------------
# error models


def compression_error_dist(d: int) -> IntDist:
    """Exact PMF of decompress(compress(x, d), d) - x over uniform x in
    [0, q); a 3329-point enumeration, no approximation."""
    x = np.arange(Q)
    err = centered(decompress(compress(x, d), d) - x)
    lo = int(err.min())
    return IntDist(lo, np.bincount(err - lo) / Q)


@dataclass
class ErrorModel:
    """Laws of the terms entering the decryption noise
    e_pk^T s' - s^T e_ct + e_dd; the baseline's compression errors are part
    of its e_ct and e_dd laws."""

    secret_dist: IntDist          # s and s' coefficients
    pk_error_dist: IntDist        # e (or the channel error on b)
    ct_error_dist: IntDist        # e' (or the channel error on u)
    e_dd_dist: IntDist            # e'' (or the channel error on v)

    def validate(self):
        for name in ("secret_dist", "pk_error_dist", "ct_error_dist", "e_dd_dist"):
            dist = getattr(self, name)
            if not dist.mass_defect() <= 1e-9:
                raise ValueError(f"{name} is not normalised")


def _noise_terms(params: ParamSet, model: ErrorModel, ladders: dict | None,
                 trim: float = TRIM) -> tuple:
    """(key_power, rest), independent, with decryption noise = key_power +
    rest: the k*n-fold convolution of secret*pk_error, and that of
    secret*ct_error plus e_dd, every operation at trim.  ladders maps a
    base's (trim, offset, mass bytes) to its power ladder and (that key,
    k*n) to the power; sharing it computes each power once."""
    model.validate()
    kn = params.k * N
    ladders = {} if ladders is None else ladders

    def power(base: IntDist) -> IntDist:
        key = (trim, base.offset, base.masses.tobytes())
        if (key, kn) not in ladders:
            ladders[key, kn] = base.convolve_power(
                kn, ladders.setdefault(key, [base]), trim)
        return ladders[key, kn]

    secret = model.secret_dist
    rest = power(secret.product(model.ct_error_dist, trim)).convolve(
        model.e_dd_dist, trim)
    return power(secret.product(model.pk_error_dist, trim)), rest


def failure_probability(params: ParamSet, model: ErrorModel,
                        ladders: dict | None = None) -> float:
    """log2 of the message decryption-failure probability.

    Failure mass is P(|noise| >= 832) per coefficient, the tail_of_sum of
    the two noise terms; the message figure is n times that (union bound).
    The exact tail lies in [tail, tail + key_power.lost + rest.lost], so a
    coarse trim's tail is kept when that width is at most 2^-40 of it.
    """
    for trim in _TRIMS:
        key_power, rest = _noise_terms(params, model, ladders, trim)
        tail = key_power.tail_of_sum(rest, FAILURE_BOUND)
        if key_power.lost + rest.lost <= _CERTIFIED * tail:
            break
    return math.log2(N * tail) if tail > 0 else float("-inf")


def standard_kyber_model(params: ParamSet) -> ErrorModel:
    """The baseline scheme: binomial errors everywhere, each ciphertext
    term convolved with its compression error."""
    e2 = IntDist.centered_binomial(params.eta2)
    return ErrorModel(
        secret_dist=IntDist.centered_binomial(params.eta1),
        pk_error_dist=IntDist.centered_binomial(params.eta1),
        ct_error_dist=e2.convolve(compression_error_dist(params.du)),
        e_dd_dist=e2.convolve(compression_error_dist(params.dv)),
    )


def wkyber_v1_model(params: ParamSet, snr_lsb_db: float,
                    variant: str = "exact",
                    pk_error_eta: int | None = None) -> ErrorModel:
    """V1: binomial key error, channel errors on the ciphertext.

    pk_error_eta defaults to eta1 (the sampling the key generation actually
    performs).  The published failure figures this project reproduces are
    only consistent with the key error drawn at the eta2 range; since
    eta1 == eta2 except at k = 2, the choice is observable only there.
    Sessions decapsulate from 4 * w10 + 2 (protocol.kem_v1_decaps), so a
    session's ciphertext term is the rounding error 2 - w2 on {-1..2}, not
    this channel law, which the rows keep to model the published figures.
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


def rate_interval(events: int, trials: int) -> tuple:
    """Two-sided 95% confidence interval of the rate events / trials:
    Wilson's score interval, or (0, 1 - 0.025^(1/n)) at zero events."""
    if trials < 1 or not 0 <= events <= trials:
        raise ValueError(f"need 0 <= events <= trials and trials >= 1, "
                         f"got {events} of {trials}")
    n, k = trials, events
    if not k:
        # 1 - 0.025^(1/n) without the cancellation of its naive form
        return 0.0, -math.expm1(math.log(0.025) / n)
    z2 = _Z975 * _Z975
    centre, half = k + z2 / 2, math.sqrt(z2 * k * (n - k) / n + z2 * z2 / 4)
    return (centre - half) / (n + z2), (centre + half) / (n + z2)


def _count_failures(args) -> int:
    version, params, plans, seeds = args
    rec = run_sessions(version, params, plans, seeds)
    return int((~rec.outcome).sum())


def ker_monte_carlo(version: str, params: ParamSet, plans, trials: int,
                    seed: int, workers: int | None = None) -> int:
    """The number of failed sessions (key/message mismatches) in trials.

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
    if workers > 1 and trials >= 64:
        import multiprocessing as mp
        chunks = [trial_seeds[i::workers] for i in range(workers)]
        with mp.Pool(workers) as pool:
            return sum(pool.map(_count_failures,
                                [(version, params, plans, ch)
                                 for ch in chunks]))
    return _count_failures((version, params, plans, trial_seeds))
