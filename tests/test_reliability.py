import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wkyber.dist import IntDist, PrecisionLossError
from wkyber.modem import ChannelPlan
from wkyber.params import KYBER512, KYBER768, PARAM_SETS, Q
from wkyber.reliability import (FAILURE_BOUND, ErrorModel, KerPoint,
                                _noise_terms, compression_error_dist,
                                failure_probability, failure_prob_rows,
                                ker_monte_carlo, sigma_vs_snr,
                                standard_kyber_model, wkyber_v1_model,
                                wkyber_v2_model)
from wkyber.transport import channel_error_pmf, coeff_error_dist

ZERO = IntDist(0, [1.0])   # the point mass at 0


def noise_distribution(params, model, ladders=None):
    """Oracle: the full law of the per-coefficient decryption noise, which
    the failure tail reads without forming."""
    key_power, rest = _noise_terms(params, model, ladders)
    return key_power.convolve(rest)


def with_mass(value):
    """A two-point law with value written in after construction, which
    rejects non-finite masses: the operand the guards must catch."""
    dist = IntDist(0, [0.5, 0.5])
    dist.masses[0] = value
    return dist


def is_symmetric(dist):
    return (dist.offset == -dist.support[-1]
            and np.allclose(dist.masses, dist.masses[::-1], rtol=1e-12, atol=0))


class TestIntDist:
    def test_point_mass_is_convolution_identity(self):
        cbd = IntDist.centered_binomial(2)
        out = cbd.convolve(ZERO)
        assert out.as_dict() == cbd.as_dict()

    def test_convolution_matches_enumeration(self):
        # CBD(2) * CBD(2) over all 8-bit patterns
        counts = Counter()
        for pattern in range(256):
            bits = [(pattern >> i) & 1 for i in range(8)]
            counts[sum(bits[:2]) - sum(bits[2:4])
                   + sum(bits[4:6]) - sum(bits[6:8])] += 1
        got = IntDist.centered_binomial(2).convolve(IntDist.centered_binomial(2))
        for v, c in counts.items():
            assert abs(got.as_dict()[v] - c / 256) < 1e-150

    def test_product_matches_enumeration(self):
        counts = Counter()
        for a in range(-2, 3):
            for b in range(-2, 3):
                counts[a * b] += math.comb(4, a + 2) * math.comb(4, b + 2)
        got = IntDist.centered_binomial(2).product(IntDist.centered_binomial(2))
        for v, c in counts.items():
            assert abs(got.as_dict()[v] - c / 256) < 1e-150

    def test_product_with_zero_point_mass(self):
        z = IntDist.centered_binomial(3).product(ZERO)
        assert z.as_dict() == {0: 1.0}

    def test_symmetric_times_symmetric(self):
        ch = coeff_error_dist(-10.0)
        assert is_symmetric(ch.product(IntDist.centered_binomial(3)))

    def test_256_fold_power_symmetric_and_conserved(self):
        d = IntDist.centered_binomial(2).convolve_power(256)
        assert is_symmetric(d)
        assert d.mass_defect() < 1e-12

    @given(st.integers(-3, 3),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(any),
           st.lists(st.integers(1, 300), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_ladder_power_matches_repeated_convolution(self, offset, masses,
                                                       times):
        base = IntDist(offset, np.array(masses) / sum(masses))
        repeated = [base]
        while len(repeated) < max(times):
            repeated.append(repeated[-1].convolve(base))
        shared = [base]
        for t in times:
            power = base.convolve_power(t, shared)
            fresh = base.convolve_power(t)
            assert power.offset == fresh.offset
            assert power.masses.tobytes() == fresh.masses.tobytes()
            # masses above 2^-400 sit far from the 2^-480 trim of either path
            got, want = power.as_dict(), repeated[t - 1].as_dict()
            for v in set(got) | set(want):
                a, b = got.get(v, 0.0), want.get(v, 0.0)
                if max(a, b) >= 2.0 ** -400:
                    assert abs(a - b) <= 1e-12 * max(a, b), (t, v, a, b)

    def test_mass_conservation_through_heavy_pipeline(self):
        noise = noise_distribution(KYBER512,
                                   wkyber_v2_model(KYBER512, -10.0))
        assert noise.mass_defect() < 1e-12

    def test_guard_trips_on_inconsistent_mass(self):
        # a distribution whose claimed total disagrees with its masses by
        # more than the conservation tolerance must be rejected
        class Lying(IntDist):
            __slots__ = ()

            def total_mass(self):
                return super().total_mass() + 1e-10

        lying = Lying(-2, IntDist.centered_binomial(2).masses)
        with pytest.raises(PrecisionLossError):
            lying.convolve(IntDist.centered_binomial(2))
        with pytest.raises(PrecisionLossError):
            lying.product(IntDist.centered_binomial(2))

    def test_guard_trips_on_non_finite_mass(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                IntDist(0, [bad, 1.0])
            with pytest.raises(ValueError):
                IntDist(0, [bad])
        huge = IntDist(0, [1e200, 1e200])
        with pytest.raises(PrecisionLossError):
            huge.convolve(huge)
        nan = with_mass(float("nan"))
        with pytest.raises(PrecisionLossError):
            nan.convolve(IntDist.centered_binomial(2))
        with pytest.raises(PrecisionLossError):
            nan.product(IntDist.centered_binomial(2))

    laws = st.tuples(st.integers(-12, 12),
                     st.lists(st.floats(0.0, 1.0), min_size=1,
                              max_size=8).filter(any))

    @given(laws, laws, st.integers(1, 24))
    @example((-3, [1.0, 2.0, 1.0]), (0, [1.0]), 1)       # bound 1
    @example((-2, [1.0, 1.0]), (0, [1.0, 1.0, 1.0]), 5)  # entirely inside
    @example((6, [1.0, 3.0]), (-12, [1.0, 1.0]), 3)      # entirely beyond
    @settings(max_examples=200, deadline=None)
    def test_tail_of_sum_matches_convolution(self, a, b, bound):
        x, y = (IntDist(off, np.array(m) / sum(m)) for off, m in (a, b))
        want = sum(p * q for u, p in zip(x.support, x.masses)
                   for v, q in zip(y.support, y.masses)
                   if abs(u + v) >= bound)
        got = x.tail_of_sum(y, bound)
        assert abs(got - want) <= 1e-14 * max(want, 1e-300), (got, want)

    def test_tail_guard_trips(self):
        cbd = IntDist.centered_binomial(2)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(PrecisionLossError):
                with_mass(bad).tail_of_sum(cbd, 1)

        # every pair sums beyond the bound, so the tail is the claimed
        # total plus 1e-10: more than the operands' mass can hold
        class Short(IntDist):
            __slots__ = ()

            def total_mass(self):
                return super().total_mass() - 1e-10

        with pytest.raises(PrecisionLossError):
            Short(5, [1.0]).tail_of_sum(cbd, 1)


class TestChannelIntDist:
    @pytest.mark.parametrize("variant", ["exact", "approx"])
    def test_matches_float_pmf(self, variant):
        from wkyber.modem import ber_4qam, snr_db_to_linear
        p = ber_4qam(snr_db_to_linear(-10.0))
        ref = channel_error_pmf(p, variant)
        dist = coeff_error_dist(-10.0, variant)
        probs = dist.as_dict()
        for off, mass in ref.as_dict().items():
            assert abs(probs[off] - mass) < 1e-13

    def test_normalised(self):
        assert coeff_error_dist(-7.5).mass_defect() < 1e-100

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            coeff_error_dist(-10.0, "printed")


class TestCompressionError:
    def test_d1_support_within_quarter(self):
        d = compression_error_dist(1)
        assert max(abs(v) for v in d.support) <= 833

    def test_exact_counts_at_d10(self):
        # independent exhaustive recount
        from wkyber.core import compress, decompress
        counts = Counter()
        for x in range(Q):
            e = int(decompress(compress(x, 10), 10) - x) % Q
            counts[e if e <= Q // 2 else e - Q] += 1
        dist = compression_error_dist(10)
        for v, c in counts.items():
            assert abs(dist.as_dict()[v] - c / Q) < 1e-100

    def test_high_width_concentrates(self):
        d = compression_error_dist(11)
        assert d.as_dict()[0] > 0.4
        assert max(abs(v) for v in d.support) <= 1


class TestFailureProbability:
    def test_kyber768_standard(self):
        lg = failure_probability(KYBER768, standard_kyber_model(KYBER768))
        assert abs(lg - (-164)) <= 1.0

    def test_all_zero_model_never_fails(self):
        model = ErrorModel(secret_dist=ZERO, pk_error_dist=ZERO,
                           ct_error_dist=ZERO, e_dd_dist=ZERO)
        assert failure_probability(KYBER768, model) == float("-inf")

    def test_dropping_compression_strictly_helps(self):
        base = standard_kyber_model(KYBER512)
        lg_with = failure_probability(KYBER512, base)
        base.compression = None
        lg_without = failure_probability(KYBER512, base)
        assert lg_without < lg_with

    def test_monotone_in_lsb_snr(self):
        vals = [failure_probability(KYBER512, wkyber_v2_model(KYBER512, snr))
                for snr in (-12.0, -10.0, -8.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_rejects_unnormalised_model(self):
        # a NaN total fails every comparison, so it must not pass as
        # normalised and trip the precision guard later
        for law in (IntDist(0, [0.5]), with_mass(float("nan"))):
            model = ErrorModel(secret_dist=law, pk_error_dist=law,
                               ct_error_dist=law, e_dd_dist=law)
            with pytest.raises(ValueError, match="not normalised"):
                failure_probability(KYBER768, model)

    def test_failure_bound_value(self):
        assert FAILURE_BOUND == 832


# log2 failure probabilities of the 512-bit fixed-point engine this float64
# engine replaced, at -10 dB: (scheme, k, snr_lsb_db, variant, log2 P_fail)
GOLDEN_TABLE = [
    ('kyber512', 2, '', '', -138.77487379714285),
    ('wkyber-v1', 2, -10.0, 'exact', -218.56691313446038),
    ('wkyber-v2', 2, -10.0, 'exact', -177.94795980132636),
    ('wkyber-v1', 2, -10.0, 'approx', -187.83742341011873),
    ('wkyber-v2', 2, -10.0, 'approx', -138.8028268667723),
    ('kyber768', 3, '', '', -164.8116822525717),
    ('wkyber-v1', 3, -10.0, 'exact', -226.6614320016821),
    ('wkyber-v2', 3, -10.0, 'exact', -183.64279797624454),
    ('wkyber-v1', 3, -10.0, 'approx', -192.4191428738614),
    ('wkyber-v2', 3, -10.0, 'approx', -141.04343963870747),
    ('kyber1024', 4, '', '', -174.7609855381395),
    ('wkyber-v1', 4, -10.0, 'exact', -173.5573227520331),
    ('wkyber-v2', 4, -10.0, 'exact', -139.87248575502576),
    ('wkyber-v1', 4, -10.0, 'approx', -145.5190545242839),
    ('wkyber-v2', 4, -10.0, 'approx', -105.70933150748488),
]


class TestGoldenTable:
    def test_rows_match_fixed_point_engine(self):
        rows = failure_prob_rows(-10.0)
        assert [row[:4] for row in rows] == [row[:4] for row in GOLDEN_TABLE]
        for row, want in zip(rows, GOLDEN_TABLE):
            assert abs(row[4] - want[4]) <= 1e-9, (row, want)


def table_models():
    """(params, model) of each failure_prob_rows(-10.0) row, in order."""
    for params in PARAM_SETS.values():
        yield params, standard_kyber_model(params)
        for variant in ("exact", "approx"):
            yield params, wkyber_v1_model(params, -10.0, variant,
                                          pk_error_eta=params.eta2)
            yield params, wkyber_v2_model(params, -10.0, variant)


class TestSharedLadders:
    def test_rows_match_lone_calls(self):
        lone = [failure_probability(params, model)
                for params, model in table_models()]
        rows = failure_prob_rows(-10.0)
        assert len(rows) == len(lone) == 15
        for row, want in zip(rows, lone):
            assert abs(row[4] - want) <= 1e-12, (row, want)

    def test_tail_matches_full_noise_law(self):
        ladders = {}
        for params, model in table_models():
            noise = noise_distribution(params, model, ladders)
            tail = noise.masses[np.abs(np.array(noise.support))
                                >= FAILURE_BOUND].sum()
            got = failure_probability(params, model, ladders)
            assert abs(got - math.log2(params.n * tail)) <= 1e-12, params

    def test_each_table_computes_its_own_powers(self, monkeypatch):
        # 94 squarings climb the ladders of the 10 distinct bases, 4
        # products give the distinct k = 3 powers X^512 * X^256, and the 15
        # rows add 21 convolutions (ct power * e_dd each, plus two
        # compression terms per baseline row); the tail reads the key power
        # against the rest without a convolution.  Every table pays all
        # 119: no power outlives the call that computed it, whatever ran
        # before
        calls = []
        convolve = IntDist.convolve

        def counted(self, other):
            calls.append(None)
            return convolve(self, other)

        monkeypatch.setattr(IntDist, "convolve", counted)
        counts = []
        for _ in range(2):
            calls.clear()
            failure_prob_rows(-10.0)
            counts.append(len(calls))
        assert counts == [119, 119]


class TestSigmaCurve:
    def test_values_and_monotonicity(self):
        pairs = sigma_vs_snr(range(-15, 1))
        sigmas = [s for _, s in pairs]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        lookup = dict(pairs)
        assert lookup[-5.0] >= 1.0
        assert abs(lookup[-10.0] - 1.28) <= 0.02

    def test_crossing_between_minus5_and_minus4(self):
        lookup = dict(sigma_vs_snr([-5.0, -4.0]))
        assert lookup[-5.0] >= 1.0 > lookup[-4.0]


class TestKerInterval:
    @pytest.mark.parametrize("failures, trials", [
        (1, 1), (1, 10), (3, 7), (14, 10_000), (37, 100), (99, 100),
        (100, 100), (2, 1_000_000)])
    def test_wilson_matches_scipy(self, failures, trials):
        from scipy.stats import binomtest
        want = binomtest(failures, trials).proportion_ci(
            confidence_level=0.95, method="wilson")
        got = KerPoint(6.0, -10.0, trials, failures).interval()
        assert got == pytest.approx((want.low, want.high), rel=1e-12)

    def test_zero_failures_closed_form(self):
        # P(no failure in n trials) = 0.025 at the upper end
        lo, hi = KerPoint(15.0, -10.0, 10_000, 0).interval()
        assert lo == 0.0
        assert hi == pytest.approx(-math.expm1(math.log(0.025) / 10_000),
                                   rel=1e-12)
        assert 3.68e-4 < hi < 3.69e-4


class TestKerMonteCarlo:
    def test_noiseless_plans_no_failures(self):
        plans = (ChannelPlan(math.inf, math.inf), ChannelPlan(math.inf, math.inf))
        pt = ker_monte_carlo("v1", KYBER512, plans, trials=5, seed=1, workers=1)
        assert pt.failures == 0 and pt.ker == 0.0

    def test_deterministic_across_worker_counts(self):
        plans = (ChannelPlan(10, 10), ChannelPlan(10, -10))
        a = ker_monte_carlo("v1", KYBER512, plans, trials=64, seed=3, workers=1)
        b = ker_monte_carlo("v1", KYBER512, plans, trials=64, seed=3, workers=2)
        assert (a.failures, a.trials) == (b.failures, b.trials)

    def test_forked_pool_matches_serial_at_6db(self):
        # real worker processes: the transforms must give the same results
        # after the fork as in the parent process.  At 3 dB sessions fail,
        # and 130 trials fill no whole number of session batches
        for snr, trials in ((6, 64), (3, 130)):
            plans = (ChannelPlan(snr, snr), ChannelPlan(snr, -10))
            a = ker_monte_carlo("v1", KYBER512, plans, trials=trials, seed=5,
                                workers=1)
            b = ker_monte_carlo("v1", KYBER512, plans, trials=trials, seed=5,
                                workers=2)
            assert a.failures == b.failures
        assert a.failures > 0

    def test_pool_capped_at_trials_and_cores(self, monkeypatch):
        # an in-process stand-in for multiprocessing.Pool: no process starts
        import multiprocessing
        import os
        sizes = []

        class RecordingPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        # 3 dB on the protected path: a few sessions fail, so the split is
        # checked on a nonzero count
        plans = (ChannelPlan(3, 3), ChannelPlan(3, -10))
        pooled = ker_monte_carlo("v1", KYBER512, plans, trials=64, seed=3,
                                 workers=500)
        assert sizes == [4]
        serial = ker_monte_carlo("v1", KYBER512, plans, trials=64, seed=3,
                                 workers=1)
        assert sizes == [4]
        assert pooled.failures == serial.failures > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ker_monte_carlo("v1", KYBER512,
                            (ChannelPlan(10, 10), ChannelPlan(10, -10)),
                            trials=0, seed=0)
        # failures above trials, negative failures, no trials
        for trials, failures in ((5, 6), (5, -1), (0, 0)):
            with pytest.raises(ValueError):
                KerPoint(10.0, -10.0, trials=trials, failures=failures)
