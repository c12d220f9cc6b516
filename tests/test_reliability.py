import dataclasses
import decimal
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkyber import bch, reliability
from wkyber.core import gen_matrices
from wkyber.modem import ChannelPlan
from wkyber.params import KYBER512, KYBER768, N, PARAM_SETS, Q
from wkyber.protocol import ker_monte_carlo, run_sessions
from wkyber.reliability import (FAILURE_BOUND, ErrorModel, IntDist,
                                PrecisionLossError, channel_error_pmf,
                                coeff_error_dist, compression_error_dist,
                                failure_probability, failure_prob_rows,
                                rate_interval, sigma_vs_snr,
                                standard_kyber_model, wkyber_v1_model,
                                wkyber_v2_model)

ZERO = IntDist(0, [1.0])   # the point mass at 0


def with_mass(value):
    """A two-point law with value written into its own writable copy of the
    masses after construction, which rejects non-finite masses: the operand
    the guards must catch."""
    dist = IntDist(0, [0.5, 0.5])
    object.__setattr__(dist, "masses", dist.masses.copy())
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
        d = IntDist.centered_binomial(2)
        for _ in range(8):
            d = d.convolve(d)
        assert is_symmetric(d)
        assert abs(d.total - 1) < 1e-12

    def test_mass_conservation_through_heavy_pipeline(self, noise_law):
        noise = noise_law(KYBER512,
                          wkyber_v2_model(KYBER512, coeff_error_dist(-10.0)))
        assert abs(noise.total - 1) < 1e-12

    def test_guard_trips_on_inconsistent_mass(self):
        # a distribution whose claimed total disagrees with its masses by
        # more than the conservation tolerance must be rejected
        lying = IntDist(-2, IntDist.centered_binomial(2).masses)
        object.__setattr__(lying, "total", lying.total + 1e-10)
        with pytest.raises(PrecisionLossError):
            lying.convolve(IntDist.centered_binomial(2))
        with pytest.raises(PrecisionLossError):
            lying.product(IntDist.centered_binomial(2))

    def test_offset_must_be_an_integer(self):
        # int() would truncate 0.7 to 0; numpy integers are integers
        with pytest.raises(TypeError):
            IntDist(0.7, [1.0])
        assert IntDist(np.int64(-1), [0.5, 0.5]).support.tolist() == [-1, 0]

    def test_masses_must_be_one_dimensional(self):
        # a nested list would pass as one mass per row and fail in convolve
        for bad in ([[0.5, 0.5]], 1.0, []):
            with pytest.raises(ValueError):
                IntDist(0, bad)

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


class TestChannelIntDist:
    @pytest.mark.parametrize("variant", ["exact", "approx"])
    def test_matches_float_pmf(self, variant):
        from wkyber.modem import bit_error_prob
        p = bit_error_prob(-10.0)
        ref = channel_error_pmf(p, variant)
        dist = coeff_error_dist(-10.0, variant)
        probs = dist.as_dict()
        for off, mass in ref.as_dict().items():
            assert abs(probs[off] - mass) < 1e-13

    def test_normalised(self):
        assert abs(coeff_error_dist(-7.5).total - 1) < 1e-100

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


class TestBaselineModel:
    def test_model_is_shared_and_read_only(self):
        # built once per parameter set, so its laws must not change
        model = standard_kyber_model(KYBER512)
        assert model is standard_kyber_model(KYBER512)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.ct_error_dist = ZERO
        with pytest.raises(ValueError):
            model.ct_error_dist.masses[0] = 0.5


class TestSharedLaws:
    """Every shared array is frozen, so the caches can memoise and models
    can share their laws."""

    def test_masses_are_read_only(self):
        # and so is every other shared array: no item write, and no array
        # in its base chain can be made writeable
        cbd = IntDist(-1, [0.25, 0.5, 0.25])
        laws = {"constructed": cbd, "convolve": cbd.convolve(cbd),
                "product": cbd.product(cbd),
                "centered_binomial": IntDist.centered_binomial(3),
                "coeff_error_dist": coeff_error_dist(-10.0),
                "compression_error_dist": compression_error_dist(10)}
        shared = {"gen_matrices": gen_matrices([b"ro" + bytes(30)], KYBER768),
                  "error_table": bch._error_table(),
                  "ENCODE_TABLE": bch.ENCODE_TABLE,
                  **{name: law.masses for name, law in laws.items()}}
        for name, array in shared.items():
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
            chain = 0
            while isinstance(array, np.ndarray):
                with pytest.raises(ValueError):
                    array.flags.writeable = True
                array, chain = array.base, chain + 1
            assert isinstance(array, bytes) and chain, name
        for law in laws.values():
            for field in ("offset", "masses"):
                with pytest.raises(AttributeError):
                    delattr(law, field)

    def test_binomial_law_is_built_once(self):
        assert IntDist.centered_binomial(2) is IntDist.centered_binomial(2)

    def test_attributes_cannot_be_rebound(self):
        # rebinding a memoised law's masses would change every later table
        cbd = IntDist(-1, [0.25, 0.5, 0.25])
        for law in (cbd, cbd.convolve(cbd), cbd.product(cbd),
                    IntDist.centered_binomial(3)):
            offset, masses = law.offset, law.masses
            for name, value in (("offset", 0), ("masses", ZERO.masses)):
                with pytest.raises(AttributeError):
                    setattr(law, name, value)
            assert law.offset == offset and law.masses is masses


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
        e2 = IntDist.centered_binomial(KYBER512.eta2)
        bare = ErrorModel(secret_dist=base.secret_dist,
                          pk_error_dist=base.pk_error_dist,
                          ct_error_dist=e2, e_dd_dist=e2)
        lg_without = failure_probability(KYBER512, bare)
        assert lg_without < lg_with

    def test_monotone_in_lsb_snr(self):
        vals = [failure_probability(KYBER512, wkyber_v2_model(
            KYBER512, coeff_error_dist(snr))) for snr in (-12.0, -10.0, -8.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_rejects_unnormalised_model(self):
        # a NaN total fails every comparison, so it must not pass as
        # normalised and trip the precision guard later
        nan = IntDist(0, [1.0])
        object.__setattr__(nan, "total", float("nan"))
        for law in (IntDist(0, [0.5]), nan):
            with pytest.raises(ValueError, match="not normalised"):
                ErrorModel(secret_dist=law, pk_error_dist=law,
                           ct_error_dist=law, e_dd_dist=law)

    def test_rejects_a_field_that_is_not_a_law(self):
        # an SNR where the channel law goes names its field, not a missing
        # attribute of a float
        with pytest.raises(TypeError, match="pk_error_dist must be an IntDist"):
            wkyber_v2_model(KYBER512, -10.0)
        with pytest.raises(TypeError, match="e_dd_dist"):
            ErrorModel(ZERO, ZERO, ZERO, ZERO.masses)

    def test_model_fields_cannot_be_rebound(self):
        model = wkyber_v2_model(KYBER512, coeff_error_dist(-10.0))
        for field in dataclasses.fields(ErrorModel):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, field.name, ZERO)

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


def table_models(snr_lsb_db=-10.0):
    """(params, model) of each failure_prob_rows(snr_lsb_db) row, in
    order."""
    for params in PARAM_SETS.values():
        yield params, standard_kyber_model(params)
        for variant in ("exact", "approx"):
            channel = coeff_error_dist(snr_lsb_db, variant)
            yield params, wkyber_v1_model(params, channel)
            yield params, wkyber_v2_model(params, channel)


class TestTableBatch:
    """A table's rows share one batch of the tilted kernel."""

    def test_repeated_table_rebuilds_no_baseline_model(self):
        # the binomial laws and the baseline models are memoised, so a
        # second table misses neither cache
        memos = (IntDist.centered_binomial.__func__, standard_kyber_model)
        failure_prob_rows(-10.0)
        misses = [memo.cache_info().misses for memo in memos]
        failure_prob_rows(-10.0)
        assert [memo.cache_info().misses for memo in memos] == misses

    def test_table_builds_each_distinct_law_once(self, monkeypatch):
        # 10 distinct products and 11 distinct Ws at -10 dB, plus, on a
        # cold table, the six compression convolutions of the three
        # baseline models, which a warm table reuses
        calls = Counter()
        for name in ("product", "convolve"):
            def counted(dist, other, _name=name, _op=getattr(IntDist, name)):
                calls[_name] += 1
                return _op(dist, other)
            monkeypatch.setattr(IntDist, name, counted)
        standard_kyber_model.cache_clear()
        failure_prob_rows(-10.0)
        assert calls == {"product": 10, "convolve": 17}
        calls.clear()
        failure_prob_rows(-10.0)
        assert calls == {"product": 10, "convolve": 11}

    def test_table_does_not_underflow(self):
        # the frequency cap's exponent is floored above exp's underflow, so
        # the -10 dB table runs on normal floats only
        with np.errstate(under="raise"):
            failure_prob_rows(-10.0)

    def test_rows_match_lone_calls(self):
        lone = [failure_probability(params, model)
                for params, model in table_models()]
        rows = failure_prob_rows(-10.0)
        assert len(rows) == len(lone) == 15
        for row, want in zip(rows, lone):
            assert abs(row[4] - want) <= 1e-12, (row, want)

    def test_tail_matches_full_noise_law(self, noise_law):
        for (params, model), row in zip(table_models(),
                                        failure_prob_rows(-10.0)):
            assert abs(row[4] - oracle_log2(noise_law, params, model)) \
                <= 1e-12, row


def oracle_log2(noise_law, params, model):
    """log2 of n P(|noise| >= 832) read from the full direct noise law."""
    noise = noise_law(params, model)
    tail = noise.masses[np.abs(noise.support) >= FAILURE_BOUND].sum()
    return math.log2(N * tail)


def largest_noise(params, model):
    """The largest value the noise takes: k n times the largest secret *
    error product of each term, plus the largest e_dd."""
    def values(law):
        return law.support[law.masses > 0]

    def top(error):
        return max(np.multiply.outer(values(model.secret_dist),
                                     values(error)).ravel())

    return (params.k * N * (top(model.pk_error_dist)
                            + top(model.ct_error_dist))
            + values(model.e_dd_dist)[-1])


def check_returned_row(noise_law, params, model):
    """The kernel may refuse a row, never print a wrong one; the oracle is
    checked where its own tail stays well inside float64."""
    try:
        got = failure_probability(params, model)
    except PrecisionLossError:
        return
    if largest_noise(params, model) < FAILURE_BOUND:
        assert got == float("-inf")
        return
    noise = noise_law(params, model)
    tail = noise.masses[np.abs(noise.support) >= FAILURE_BOUND].sum()
    assert math.isfinite(got)
    if tail > 2.0 ** -900:
        assert abs(got - math.log2(N * tail)) <= 1e-9, (got, tail)


class TestTiltedKernel:
    # +5 dB k = 3 v1-exact is -523.267; a direct engine that drops masses
    # below 2^-480 prints -528.485 there
    @pytest.mark.parametrize("snr, bits, scheme, variant", [
        (0.0, 512, "v2", "exact"), (0.0, 768, "v1", "exact"),
        (0.0, 1024, "v2", "approx"), (5.0, 768, "v1", "exact"),
        (5.0, 512, "v1", "exact"), (5.0, 768, "v2", "approx")])
    def test_matches_untrimmed_direct_oracle(self, noise_law, snr, bits,
                                             scheme, variant):
        params = PARAM_SETS[bits]
        builder = wkyber_v1_model if scheme == "v1" else wkyber_v2_model
        model = builder(params, coeff_error_dist(snr, variant))
        got = failure_probability(params, model)
        assert abs(got - oracle_log2(noise_law, params, model)) <= 1e-9

    def test_every_depth(self):
        # finite, at most 0 and never NaN wherever the noise can reach 832;
        # the v2 rows fall as the low-bit SNR rises
        grid = (-30.0, -20.0, -13.0, -10.0, -5.0, 0.0, 5.0, 10.0)
        tables = [failure_prob_rows(snr) for snr in grid]
        for snr, rows in zip(grid, tables):
            for row, (params, model) in zip(rows, table_models(snr)):
                assert largest_noise(params, model) >= FAILURE_BOUND
                assert math.isfinite(row[4]) and row[4] <= 0, (snr, row)
        for i, row in enumerate(tables[0]):
            if row[0] == "wkyber-v2":
                column = [rows[i][4] for rows in tables]
                assert column == sorted(column, reverse=True), row

    # a random law on -a..a, a <= reach, its masses at least 1% of the
    # largest; a symmetric one mirrors the masses it draws for 0..a
    @staticmethod
    def small_law(reach, symmetric=False):
        def law(a):
            size = a + 1 if symmetric else 2 * a + 1
            return st.lists(st.floats(0.01, 1.0), min_size=size,
                            max_size=size).map(
                lambda m: IntDist(-a, masses(m)))

        def masses(m):
            m = np.array(m[:0:-1] + m if symmetric else m)
            return m / sum(m)

        return st.integers(0, reach).flatmap(law)

    @given(st.sampled_from([512, 768, 1024]), st.integers(1, 3),
           small_law(3), small_law(3), small_law(8))
    @settings(max_examples=25, deadline=None)
    def test_returned_rows_match_the_oracle(self, noise_law, bits, eta, pk,
                                            ct, e_dd):
        check_returned_row(noise_law, PARAM_SETS[bits], ErrorModel(
            IntDist.centered_binomial(eta), pk, ct, e_dd))

    def test_law_wider_than_window_raises(self):
        # an e_dd on -600..600 would not fit the transform's window
        wide = IntDist(-600, np.full(1201, 1 / 1201))
        model = dataclasses.replace(
            wkyber_v2_model(KYBER512, coeff_error_dist(-10.0)), e_dd_dist=wide)
        with pytest.raises(PrecisionLossError):
            failure_probability(KYBER512, model)

    def test_uncertified_tail_raises(self, monkeypatch):
        # no float64 transform reaches a 2^-80 share of its tail
        monkeypatch.setattr(reliability, "_CERTIFIED", 2.0 ** -80)
        with pytest.raises(PrecisionLossError):
            failure_prob_rows(-10.0)


class TestMirrorRule:
    """A row whose W and Z masses are their mirrors' within relative 2^-50
    reads its upper tail only."""

    def test_tail_counts(self, monkeypatch):
        # 3 baseline rows read two tails each, the 12 v1/v2 rows one
        counts, kernel = [], reliability._log_tails
        monkeypatch.setattr(reliability, "_log_tails", lambda tails: (
            counts.append(len(tails[2])), kernel(tails))[1])
        failure_prob_rows(-10.0)
        failure_probability(KYBER512, standard_kyber_model(KYBER512))
        assert counts == [18, 2]

    def test_near_mirror_law_reads_both_tails(self, noise_law):
        # e_dd(2) 1e-6 above e_dd(-2): taking the lower tail equal to the
        # upper would be off by 8.9e-8 log2
        model = wkyber_v2_model(KYBER512, coeff_error_dist(-10.0))
        e_dd = model.e_dd_dist
        masses = e_dd.masses.copy()
        masses[e_dd.support == 2] *= 1 + 1e-6
        model = dataclasses.replace(model, e_dd_dist=IntDist(
            e_dd.offset, masses / masses.sum()))
        got = failure_probability(KYBER512, model)
        assert abs(got - oracle_log2(noise_law, KYBER512, model)) <= 1e-9

    @given(st.sampled_from([512, 768, 1024]), st.integers(1, 3),
           TestTiltedKernel.small_law(3, symmetric=True),
           TestTiltedKernel.small_law(3, symmetric=True),
           TestTiltedKernel.small_law(8, symmetric=True))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_rows_match_the_oracle(self, noise_law, bits, eta, pk,
                                             ct, e_dd):
        check_returned_row(noise_law, PARAM_SETS[bits], ErrorModel(
            IntDist.centered_binomial(eta), pk, ct, e_dd))


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
        got = rate_interval(failures, trials)
        assert got == pytest.approx((want.low, want.high), rel=1e-12)

    def test_zero_failures_closed_form(self):
        # P(no failure in n trials) = 0.025 at the upper end
        lo, hi = rate_interval(0, 10_000)
        assert lo == 0.0
        assert hi == pytest.approx(-math.expm1(math.log(0.025) / 10_000),
                                   rel=1e-12)
        assert 3.68e-4 < hi < 3.69e-4
        # at 10^8 trials the naive 1 - 0.025^(1/n) cancels to 1e-9 of its
        # value; the oracle is 40-digit decimal arithmetic
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            want = 1 - (decimal.Decimal("0.025").ln() / 10**8).exp()
        assert rate_interval(0, 10**8)[1] == pytest.approx(float(want),
                                                           rel=1e-12)


class TestKerMonteCarlo:
    def test_noiseless_plans_no_failures(self):
        plans = (ChannelPlan(math.inf, math.inf), ChannelPlan(math.inf, math.inf))
        assert ker_monte_carlo("v1", KYBER512, plans, trials=5, seed=1,
                               workers=1) == 0

    def test_deterministic_across_worker_counts(self):
        plans = (ChannelPlan(10, 10), ChannelPlan(10, -10))
        a = ker_monte_carlo("v1", KYBER512, plans, trials=64, seed=3, workers=1)
        b = ker_monte_carlo("v1", KYBER512, plans, trials=64, seed=3, workers=2)
        assert a == b

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
            assert a == b
        assert a > 0

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_counts_run_sessions_failures(self, version):
        # trial i of seed s is the session of seed s * 1_000_003 + i, on
        # the serial path and across forked workers.  At 3 dB sessions fail,
        # and 130 trials fill no whole number of session batches
        plans = (ChannelPlan(3, 3), ChannelPlan(3, -10))
        run = run_sessions(version, KYBER512, plans,
                           [5 * 1_000_003 + i for i in range(130)])
        want = int((~run.outcome).sum())
        assert want > 0
        for workers in (1, 2):
            assert ker_monte_carlo(version, KYBER512, plans, trials=130,
                                   seed=5, workers=workers) == want

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
        assert pooled == serial > 0

    @pytest.mark.parametrize("version, seed, match", [
        ("v3", 0, "version must be"), ("v1", -1, "seed -1 is negative")])
    def test_refuses_before_starting_a_pool(self, monkeypatch, version, seed,
                                            match):
        # the error names the caller's seed, not a derived session seed
        import multiprocessing
        import os
        started = []
        monkeypatch.setattr(multiprocessing, "Pool", started.append)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        with pytest.raises(ValueError, match=match):
            ker_monte_carlo(version, KYBER512,
                            (ChannelPlan(10, 10), ChannelPlan(10, -10)),
                            trials=64, seed=seed, workers=2)
        assert started == []

    def test_numpy_seed_matches_int_seed(self):
        # seed * 1_000_003 overflows int64 from about 9.2e12; at 2 dB on
        # the protected path some sessions fail (2 of these 8, 6 of the 8
        # from seed + 1), so the count says which sessions ran
        plans = (ChannelPlan(2, 2), ChannelPlan(2, -10))
        want = ker_monte_carlo("v1", KYBER512, plans, trials=8, seed=10**13,
                               workers=1)
        assert 0 < want < 8
        assert ker_monte_carlo("v1", KYBER512, plans, trials=8,
                               seed=np.int64(10**13), workers=1) == want
        with pytest.raises(TypeError):
            ker_monte_carlo("v1", KYBER512, plans, trials=8, seed=3.0,
                            workers=1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ker_monte_carlo("v1", KYBER512,
                            (ChannelPlan(10, 10), ChannelPlan(10, -10)),
                            trials=0, seed=0)
        for workers in (0, -1):
            with pytest.raises(ValueError):
                ker_monte_carlo("v1", KYBER512,
                                (ChannelPlan(10, 10), ChannelPlan(10, -10)),
                                trials=5, seed=0, workers=workers)
        # failures above trials, negative failures, no trials
        for trials, failures in ((5, 6), (5, -1), (0, 0)):
            with pytest.raises(ValueError):
                rate_interval(failures, trials)
