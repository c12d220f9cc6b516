"""Probability laws, decryption-failure analysis and rate intervals.

The per-coefficient decryption noise S is k n copies of W = secret*pk_error
+ secret*ct_error (exact IntDists, below) plus an e_dd term Z.
P(S >= 832) is a tilted FFT at the saddlepoint (Daniels 1954; Keich 2005):
theta solves K'(theta) = 832, K = k n log M_W + log M_Z, and the laws
tilted by e^(theta x) / M sum to a law T whose largest masses sit at 832,
so the FFT's error (absolute, near 2^-53 of the largest mass, which would
drown an untilted tail) is relative to the tail.  A WINDOW = 1024-point
transform holds T on [64, 1088): W's transform to the k n-th power by
squaring, times Z's, one irfft, P(S >= 832) = e^(K - 832 theta) sum T(s)
e^(-theta (s - 832)) over the 256 bins from 832.  The lower tail is the
mirrored laws', or the upper where W's and Z's masses are their mirrors'
within relative 2^-50: the tails' ratio is then within (1 + 2^-50)^(k n +
1), the row's sum within 2^-41 at k = 4, so 15 rows run 18 tails, and they
share their laws: a call builds each distinct product and W once.  X (W's
transform) is raised only where a bound on |X|^(k n), its exponent floored
at -600 (which only raises it), tops 2^-64 for some tail.  A tail is
certified (else PrecisionLossError) when a Chernoff bound on T's mass
outside the window and a running float error bound (Higham 2002, 3.3) are
each within 2^-40 of the sum.  To first order in u = 2^-53, X - 1 (W's
transform less one, from first-quadrant sines) is within (2t + 8) u sum
p(x) (|sin wx| + 2 sin^2(wx/2)), t nonzero masses: nil at w = 0, so k n
does not multiply it.  Squaring X - 1 rounds within 4 u of its value, a
product within 3 u, an (i)rfft entry within 5 log2(WINDOW) u of the l1 norm.
No session code loads here: protocol.ker_monte_carlo counts failed
sessions, and rate_interval gives such a count its 95% interval.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .core import centered, check_probability, compress, decompress, frozen
from .modem import bit_error_prob
from .params import N, PARAM_SETS, Q, ParamSet

_Z975 = 1.959963984540054      # 0.975 quantile of the standard normal

# smallest centred noise magnitude that can flip a message bit: the two
# decision regions of compress(x, 1) sit 832 = round(q/4) away from the
# encoded points (asymmetrically by one unit, absorbed by the union bound)
FAILURE_BOUND = (Q + 2) // 4

# window, bins read from 832 up, certified share, u and 5 log2(WINDOW) u
WINDOW, _READ, _CERTIFIED = 1024, 256, 2.0 ** -40
_EPS, _FFT_ERROR = 2.0 ** -53, 5 * math.log2(WINDOW) * 2.0 ** -53
# sin(pi k / WINDOW), k = 0..WINDOW, each from a first-quadrant argument
_HALF = np.sin(np.pi / WINDOW * np.r_[:WINDOW // 2 + 1, WINDOW // 2 - 1:-1:-1])


# ---------------------------------------------------------------------------
# laws: IntDist sums and products are exact (np.convolve, and an outer
# product of nonnegative masses: nothing cancels, so each mass keeps its
# relative accuracy for the tilted FFT); a conservation guard trips if an
# operation's total mass drifts by more than _GUARD.  Every law, operation
# results included, and every ErrorModel is checked once, by its
# constructor.  Masses are frozen (core.frozen), so models share laws.

_GUARD = 1e-12                 # conservation tolerance


class PrecisionLossError(ArithmeticError):
    """Total probability mass drifted beyond the conservation guard."""


@dataclass(frozen=True, slots=True, eq=False)
class IntDist:
    """Integer-valued distribution on a contiguous support with float64
    masses, and their total, summed once.  Instances are immutable (no
    field can be rebound or deleted, the masses are frozen); operations
    return new distributions."""

    offset: int
    masses: np.ndarray
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "offset", operator.index(self.offset))
        object.__setattr__(self, "masses", frozen(
            np.asarray(self.masses, np.float64)))
        if self.masses.ndim != 1 or not self.masses.size:
            raise ValueError("masses must be a nonempty 1-D array")
        # a NaN fails every comparison, -inf the first and +inf the last
        if not 0 <= self.masses.min() <= self.masses.max() < math.inf:
            raise ValueError("negative or non-finite mass")
        object.__setattr__(self, "total", float(self.masses.sum()))

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

    def as_dict(self) -> dict:
        """Every support value mapped to its mass, zeros included."""
        return dict(zip(self.support.tolist(), self.masses.tolist()))

    def _checked(self, other: "IntDist", offset: int, masses, op: str):
        """The result if its mass is the operands' product (a NaN or
        infinite sum fails the comparison)."""
        if not abs(float(masses.sum()) - self.total * other.total) <= _GUARD:
            raise PrecisionLossError(f"mass conservation violated in {op}")
        return IntDist(offset, masses)

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


def compression_error_dist(d: int) -> IntDist:
    """Exact PMF of decompress(compress(x, d), d) - x, x uniform in [0, q)."""
    x = np.arange(Q)
    err = centered(decompress(compress(x, d), d) - x)
    lo = int(err.min())
    return IntDist(lo, np.bincount(err - lo) / Q)


def channel_error_pmf(p_b: float, variant: str = "exact") -> IntDist:
    """Coefficient error PMF for a given per-bit flip probability.

    After a successful BCH decode only w2 (``transport``) is perturbed, so
    the error lies on {-3..3}.  "exact" averages over the four equally
    likely transmitted w2 values and the sixteen (sent, received)
    transitions:

        P(0)  = (1-p)^2          P(+-1) = p(1-p)/2 + p^2/4
        P(+-2) = p(1-p)/2        P(+-3) = p^2/4

    "approx" is a coarser closed form that quarters P(0) and counts the
    double-flip contribution to |e| = 1 at four times the exact rate; its
    cases do not sum to one, so it is renormalised here.  Both weightings
    are exposed because downstream reliability figures exist for each.
    """
    p = check_probability(p_b)
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
    return math.sqrt(float((d.support ** 2 * d.masses).sum()))


# ---------------------------------------------------------------------------
# error models


@dataclass(frozen=True)
class ErrorModel:
    """Laws of the terms entering the decryption noise
    e_pk^T s' - s^T e_ct + e_dd; the baseline's compression errors are part
    of its e_ct and e_dd laws.  Immutable, and every law is normalised."""

    secret_dist: IntDist          # s and s' coefficients
    pk_error_dist: IntDist        # e (or the channel error on b)
    ct_error_dist: IntDist        # e' (or the channel error on u)
    e_dd_dist: IntDist            # e'' (or the channel error on v)

    def __post_init__(self):
        for name in ("secret_dist", "pk_error_dist", "ct_error_dist", "e_dd_dist"):
            if not isinstance(law := getattr(self, name), IntDist):
                raise TypeError(f"{name} must be an IntDist, not "
                                f"{type(law).__name__}")
            if not abs(law.total - 1) <= 1e-9:
                raise ValueError(f"{name} is not normalised")


def _cgf(tails: tuple, theta: np.ndarray) -> tuple:
    """(K, K', K'', W and Z tilted by e^(theta x) / M) per tail, K = count
    log M_W + log M_Z, from log masses on the grid -r..r."""
    out, laws = 0, []
    for logs, times in zip(tails, (tails[2], 1)):
        grid = np.arange(logs.shape[1]) - logs.shape[1] // 2
        arg = logs + theta[:, None] * grid
        top = arg.max(axis=1)
        masses = np.exp(arg - top[:, None])
        total = masses.sum(axis=1)
        masses /= total[:, None]
        mean = masses @ grid
        var = ((grid - mean[:, None]) ** 2 * masses).sum(axis=1)
        out = out + times * np.array([top + np.log(total), mean, var])
        laws.append(masses)
    return (*out, *laws)


def _saddlepoint(tails: tuple) -> tuple:
    """(theta, _cgf(theta)), 16 (K' - 832)^2 <= K'': Newton steps kept in the
    bracket and under far = 2 theta + 1/2; else far, or the bracket's mid."""
    theta = np.zeros(len(tails[2]))
    lo, hi = theta.copy(), theta + np.inf
    for i in range(64):    # then the certificate judges where it stopped
        state = _cgf(tails, theta)
        slope, curv = state[1] - FAILURE_BOUND, state[2]
        if i == 63 or (16 * slope * slope <= curv).all():
            break
        lo, hi = np.where(slope < 0, theta, lo), np.where(slope > 0, theta, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step, far = theta - slope / curv, 2 * theta + 0.5
            mid = np.where(lo > 0, np.sqrt(lo * hi), hi / 2)
        theta = np.where((step > lo) & (step < np.minimum(hi, far)), step,
                         np.where(hi < np.inf, mid, far))
    return theta, state


def _log_tails(tails: tuple) -> np.ndarray:
    """ln P(count Ws + Z >= 832) per tail (W, Z logs, count, name)."""
    theta, (cgf, _, var, pair, last) = _saddlepoint(tails)
    # the laws start at index 0, so T sits shifted by Z's reach; |X| <= |W's
    # rfft| + _FFT_ERROR, and X is raised only where some tail's bound on
    # |X|^count tops 2^-64, elsewhere 0 plus that bound on the error.  The
    # bound's exponent is floored at -600, where exp and cap * (|Z's rfft| +
    # _FFT_ERROR) stay normal floats: that only raises the error bound, by
    # at most 513 e^-600 in all, far below 2^-40 of any tail's sum
    pair_ft, spectrum = (np.fft.rfft(p, WINDOW) for p in (pair, last))
    cap = np.exp(np.maximum(
        tails[2][:, None] * np.log(np.abs(pair_ft) + _FFT_ERROR), -600.0))
    keep = (cap > 2.0 ** -64).any(axis=0)
    # offset = X - 1 = sum p(x) (cos - 1 - i sin)(2 pi w x / WINDOW)
    idx = np.outer(np.arange(pair.shape[1]) - pair.shape[1] // 2,
                   np.flatnonzero(keep)) % WINDOW
    sines = np.where(idx < WINDOW // 2, 1, -1) * _HALF[2 * idx % WINDOW]
    offset = pair @ (-2 * _HALF[idx] ** 2) - 1j * (pair @ sines)
    err = ((2 * np.count_nonzero(pair, axis=1) + 8)[:, None] * _EPS
           * (pair @ np.abs(sines) - offset.real))
    # power = X^count over the bits of count, value = X^(2^j) = 1 + offset;
    # a rung multiplies only the tails whose count has bit j (k n = 512,
    # 768 or 1024: bits 8 to 10), but squares and bounds every one
    power, power_err = np.ones_like(offset), np.zeros(offset.shape)
    for j in range(int(tails[2].max()).bit_length()):
        size = np.abs(value := offset + 1)
        if (rows := np.flatnonzero(tails[2] >> j & 1)).size:
            new = power[rows] * value[rows]
            power_err[rows] = (np.abs(power[rows]) * (err + _EPS * size)[rows]
                               + size[rows] * power_err[rows]
                               + 3 * _EPS * np.abs(new))
            power[rows] = new
        offset *= offset + 2
        err = 2 * size * err + 4 * _EPS * np.abs(offset)
    size, last_size = np.abs(power), np.abs(spectrum)
    bound = 2 / WINDOW * (((power_err + (3 * _EPS + _FFT_ERROR) * size)
                           * last_size[:, keep] + _FFT_ERROR * size).sum(1)
                          + (cap * (last_size + _FFT_ERROR))[:, ~keep].sum(1))
    spectrum[:, ~keep], spectrum[:, keep] = 0, spectrum[:, keep] * power
    steps = np.arange(_READ)
    weights = np.exp(-theta[:, None] * steps)
    read = np.fft.irfft(spectrum, WINDOW)[
        :, (FAILURE_BOUND + last.shape[1] // 2 + steps) % WINDOW] * weights
    tail = read.sum(axis=1)
    float_err = bound * weights.sum(axis=1) + _EPS * (
        np.abs(read) * (_READ + 2 + theta[:, None] * steps)).sum(axis=1)
    # Chernoff, P(S >= a) <= e^(K(theta + t) - K - t a) (t < 0: S <= a)
    top = FAILURE_BOUND + _READ
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        up, down = _READ / var, (_READ - WINDOW) / var
        above, below = (np.exp(_cgf(tails, theta + t)[0] - cgf - t * a)
                        for t, a in ((up, top), (down, top - WINDOW - 1)))
        wrap = above * (np.exp(-theta * _READ)
                        + np.exp(up * (_READ - WINDOW))) + below
    ok = np.maximum(wrap, float_err) <= _CERTIFIED * tail
    if not ok.all():    # name the worst tail, its bound and their log2 ratio
        with np.errstate(divide="ignore", invalid="ignore"):
            shares = np.where(ok, -np.inf, np.log2([wrap, float_err] / tail))
        b, i = np.unravel_index(np.argmax(shares), shares.shape)
        raise PrecisionLossError(f"{tails[3][i]} tail: {('wrap', 'float')[b]} "
                                 f"bound at 2^{shares[b, i]:.1f} of it")
    return cgf - FAILURE_BOUND * theta + np.log(tail)


def _log2_failures(rows, names) -> list:
    """log2 n P(|noise| >= 832) per (params, model) row; -inf out of reach."""
    # rows share their laws (IntDist compares by identity), so a call builds
    # each distinct product and W once; nothing is kept across calls
    product = functools.cache(IntDist.product)

    @functools.cache
    def w_law(s, pk, ct):
        return product(s, pk).convolve(product(s, ct))

    laws = [(w_law(m.secret_dist, m.pk_error_dist, m.ct_error_dist),
             m.e_dd_dist) for _, m in rows]
    # W and Z within relative 2^-50 of their mirrors: one tail (module doc)
    tails, mirrored = [], np.ones(len(rows), bool)
    for term in zip(*laws):    # W, then Z, on one grid -r..r each
        r = max(max(-d.offset, d.offset + len(d.masses) - 1) for d in term)
        if 2 * r >= WINDOW:    # rfft(masses, WINDOW) would crop the law
            raise PrecisionLossError("a law is wider than the window")
        grid = np.zeros((len(term), 2 * r + 1))
        for row, d in zip(grid, term):
            row[d.offset + r:][:len(d.masses)] = d.masses
        mirrored &= (abs(grid - grid[:, ::-1]) <= 2.0 ** -50 * grid).all(1)
        with np.errstate(divide="ignore"):
            tails.append(np.log(grid))
    low = np.flatnonzero(~mirrored)    # the rows that read both tails
    tails = [np.concatenate([logs, logs[low, ::-1]]) for logs in tails]
    tails.append(np.array([p.k * N for p, _ in rows])[np.r_[:len(rows), low]])
    tails.append(np.array([f"{n} upper" for n in names]
                          + [f"{names[i]} lower" for i in low]))
    reach = sum(times * (logs.shape[1] // 2
                         - np.isfinite(logs[:, ::-1]).argmax(axis=1))
                for logs, times in zip(tails, (tails[2], 1)))
    logs, live = np.full(len(reach), -np.inf), reach >= FAILURE_BOUND
    if live.any():
        logs[live] = _log_tails(tuple(t[live] for t in tails))
    both = logs[:len(rows)] + np.where(mirrored, math.log(2), 0)
    both[low] = np.logaddexp(both[low], logs[len(rows):])
    return ((both + math.log(N)) / math.log(2)).tolist()


def failure_probability(params: ParamSet, model: ErrorModel) -> float:
    """log2 of n P(|noise| >= 832), the message failure union bound."""
    return _log2_failures([(params, model)], [f"k={params.k}"])[0]


@functools.cache
def standard_kyber_model(params: ParamSet) -> ErrorModel:
    """The baseline scheme, built once per parameter set: binomial errors
    everywhere, each ciphertext term convolved with its compression error."""
    e1, e2 = (IntDist.centered_binomial(e) for e in (params.eta1, params.eta2))
    return ErrorModel(e1, e1, e2.convolve(compression_error_dist(params.du)),
                      e2.convolve(compression_error_dist(params.dv)))


def wkyber_v1_model(params: ParamSet, channel: IntDist) -> ErrorModel:
    """V1: binomial key error, the channel's law on the ciphertext.

    The key error is drawn at the eta2 range: the published failure
    figures this project reproduces are only consistent with it, though
    key generation (pke.keygen) samples it at eta1; since eta1 == eta2
    except at k = 2, the choice is observable only there.  Sessions
    decapsulate from 4 * w10 + 2 (protocol.kem_v1_decaps), so a session's
    ciphertext term is the rounding error 2 - w2 on {-1..2}, not this
    channel law, which the rows keep to model the published figures.
    """
    return ErrorModel(IntDist.centered_binomial(params.eta1),
                      IntDist.centered_binomial(params.eta2), channel, channel)


def wkyber_v2_model(params: ParamSet, channel: IntDist) -> ErrorModel:
    """V2: the channel's law supplies the key error as well."""
    return ErrorModel(IntDist.centered_binomial(params.eta1), channel, channel,
                      channel)


def failure_prob_rows(snr_lsb_db: float = -10.0):
    """Failure probabilities for every scheme, rank and channel variant.

    Rows: (scheme, k, snr_lsb_db, channel_variant, log2_failure_prob).
    The V1 rows draw the key error at eta2, as the published figures do
    (see wkyber_v1_model).  One channel law per variant serves six rows.
    """
    laws = {v: coeff_error_dist(snr_lsb_db, v) for v in ("exact", "approx")}
    labels, rows = [], []
    for params in PARAM_SETS.values():
        labels.append((params.name, params.k, "", ""))
        rows.append((params, standard_kyber_model(params)))
        for variant, ch in laws.items():
            labels += [(scheme, params.k, snr_lsb_db, variant)
                       for scheme in ("wkyber-v1", "wkyber-v2")]
            rows += [(params, wkyber_v1_model(params, ch)),
                     (params, wkyber_v2_model(params, ch))]
    names = [f"{s} k={k} {v}".rstrip() for s, k, _, v in labels]
    return [(*label, value)
            for label, value in zip(labels, _log2_failures(rows, names))]


# ---------------------------------------------------------------------------
# channel deviation curve and the interval of a Monte Carlo rate


def sigma_vs_snr(snr_grid) -> list:
    """(snr_db, standard deviation of the induced coefficient error)."""
    return [(float(snr), dist_stddev(coeff_error_dist(float(snr), "exact")))
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
