import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import binom

from wkyber.cli import _snr_in_range
from wkyber.modem import (ChannelPlan, NoiseSource, bit_error_prob,
                          demodulate_symbols, flip_masks, modulate_words,
                          transmit)
from wkyber.reliability import coeff_error_dist

WORDS = np.arange(4)


class TestModulation:
    def test_documented_corner(self):
        # words 0, 1, 2, 3 -> (+,+), (-,+), (+,-), (-,-)
        assert modulate_words(WORDS).tolist() == [1 + 1j, -1 + 1j, 1 - 1j,
                                                  -1 - 1j]

    def test_four_distinct_quadrants(self):
        s = modulate_words(WORDS)
        assert len(set(zip(s.real > 0, s.imag > 0))) == 4

    def test_gray_property(self):
        # walk the quadrants in circular order; adjacent labels differ by 1 bit
        s = modulate_words(WORDS)
        order = np.argsort(np.angle(s)).tolist()
        for a, b in zip(order, order[1:] + order[:1]):
            assert bin(a ^ b).count("1") == 1

    def test_demod_inverts_modulate(self):
        assert demodulate_symbols(modulate_words(WORDS)).tolist() == [0, 1, 2, 3]

    def test_quadrant_rule(self):
        # (-,+) quadrant; sign ties toward positive on either axis
        got = demodulate_symbols(np.array([-0.1 + 5j, 0j, -0.0 - 0.0j,
                                           -2 + 0j, 0 - 2j]))
        assert got.tolist() == [1, 0, 0, 1, 2]

    def test_rejects_bad_word(self):
        with pytest.raises(ValueError):
            modulate_words(np.array([0, 4]))
        with pytest.raises(ValueError):
            modulate_words(np.array([-1]))


class TestTransmit:
    def test_infinite_snr_is_identity(self):
        words = np.arange(4)
        syms = modulate_words(words)
        out = transmit(syms, math.inf, NoiseSource(0))
        assert np.array_equal(out, syms)

    def test_deterministic(self):
        syms = modulate_words(np.zeros(1000, dtype=np.int64))
        a = transmit(syms, 3.0, NoiseSource(11))
        b = transmit(syms, 3.0, NoiseSource(11))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 + 5, 2 ** 63 - 1])
    @pytest.mark.parametrize("n", [0, 1, 7, 13056])
    @pytest.mark.parametrize("snr_db", [-10.0, 6.0, 10.0])
    def test_pairs_match_interleaved_normal_draw(self, seed, n, snr_db):
        # the stream of sessions pinned elsewhere: re/im interleaved from
        # one normal(0, sigma, 2n) draw, then the generator moves on
        sigma = math.sqrt(1.0 / (2.0 * 10.0 ** (snr_db / 10.0)))
        ref = np.random.default_rng(seed)
        flat = ref.normal(0.0, sigma, 2 * n)
        noise = NoiseSource(seed)
        got = noise.pairs(n, sigma)
        assert got.dtype == np.complex128 and got.shape == (n,)
        assert got.tobytes() == (flat[0::2] + 1j * flat[1::2]).tobytes()
        after = ref.normal(0.0, 1.0, 2)
        assert noise.pairs(1, 1.0).tobytes() == (after[0] + 1j * after[1]).tobytes()

    def test_noise_variance(self):
        # per-component variance N0/2 = 0.5 (Eb/N0 = 1) within 1% at 0 dB
        # over 10^6 symbols
        n = 1_000_000
        syms = np.zeros(n, dtype=np.complex128)
        out = transmit(syms, 0.0, NoiseSource(5))
        var = float(np.concatenate([out.real, out.imag]).var())
        assert abs(var - 0.5) <= 0.01 * 0.5


class TestFlips:
    @pytest.mark.parametrize("p", [0.003, 0.05, 0.3])
    def test_per_position_rates_31_bit(self, p):
        n = 100_000
        masks = flip_masks([NoiseSource(31)], [(n, 31, p)])[0]
        assert masks.dtype == np.int64 and masks.shape == (n,)
        assert masks.min() >= 0 and masks.max() < 1 << 31
        lo, hi = binom.interval(1 - 1e-6, n, p)
        for bit in range(31):
            count = np.count_nonzero((masks >> bit) & 1)
            assert lo <= count <= hi, (bit, count, n * p)

    @pytest.mark.parametrize("p", [0.003, 0.05, 0.3])
    def test_word_weight_is_binomial(self, p):
        # independent bits: a word's weight follows binomial(31, p)
        n = 100_000
        masks = flip_masks([NoiseSource(32)], [(n, 31, p)])[0]
        weights = np.array([bin(int(m)).count("1") for m in masks])
        # cells lo..hi, the first and last pooling their tails
        lo, hi = binom.ppf([1e-3, 1 - 1e-3], 31, p).astype(int)
        counts = np.bincount(np.clip(weights, lo, hi) - lo,
                             minlength=hi - lo + 1)
        cdf = binom.cdf(np.arange(lo, hi), 31, p)
        expected = np.diff(np.concatenate([[0.0], cdf, [1.0]])) * n
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 60  # at most 22 cells, p ~ 1e-5

    def test_count_zero(self):
        for p in (0.0, 0.5):
            masks = flip_masks([NoiseSource(0)], [(0, 31, p)])[0]
            assert masks.dtype == np.int64 and masks.shape == (0,)

    def test_certain_flip_sets_every_bit(self):
        masks = flip_masks([NoiseSource(0)], [(100, 31, 1.0), (100, 2, 1.0)])
        assert (masks[0, :100] == (1 << 31) - 1).all()
        assert (masks[0, 100:] == 3).all()

    def test_zero_count_draws_only_the_count(self):
        # 31 bits at p = 1e-9 flip none: the generator ends where the
        # binomial draw alone leaves it
        noise = NoiseSource(11)
        assert not flip_masks([noise], [(1, 31, 1e-9)]).any()
        rng = np.random.default_rng(11)
        assert rng.binomial(31, 1e-9) == 0
        assert noise._rng.bit_generator.state == rng.bit_generator.state

    def test_zero_probability_draws_nothing(self):
        noise = NoiseSource(9)
        assert not flip_masks([noise], [(10_000, 31, 0.0)]).any()
        assert noise.pairs(2, 1.0).tobytes() == \
            NoiseSource(9).pairs(2, 1.0).tobytes()

    def test_deterministic(self):
        a = flip_masks([NoiseSource(4)], [(5000, 31, 0.02)])
        b = flip_masks([NoiseSource(4)], [(5000, 31, 0.02)])
        assert np.array_equal(a, b)

    def test_rows_draw_their_fields_in_order(self):
        # a row is its own source's fields drawn one after another, the
        # same as a batch of one per field, whatever the other rows hold
        fields = [(26, 31, 0.05), (300, 31, 0.01), (300, 2, 0.3)]
        masks = flip_masks([NoiseSource(50 + i) for i in range(3)], fields)
        assert masks.shape == (3, 626)
        for i in range(3):
            noise = NoiseSource(50 + i)
            row = [flip_masks([noise], [field])[0] for field in fields]
            assert np.array_equal(masks[i], np.concatenate(row))


class TestQFunction:
    """bit_error_prob(snr) is Q(x) at x = sqrt(2 Eb/N0), so x > 0."""

    def test_half_at_zero(self):
        # Eb/N0 = 1e-300: x = 1.4e-150, where Q rounds to its value at 0
        assert bit_error_prob(-3000.0) == 0.5

    def test_known_value(self):
        # x = sqrt(0.2) = 0.4472 at -10 dB
        assert abs(bit_error_prob(-10.0) - 0.3274) < 1e-4

    @pytest.mark.parametrize("x", [0.7, 1.5, 3.0, 6.0])
    def test_against_quadrature(self, x):
        snr_db = 10.0 * math.log10(x * x / 2.0)   # the dB point of this x
        oracle, err = integrate.quad(
            lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi),
            math.sqrt(2.0 * 10.0 ** (snr_db / 10.0)), np.inf)
        assert err < 1e-8  # quadrature's own error estimate
        assert abs(bit_error_prob(snr_db) - oracle) <= 1e-12

    def test_endpoints(self):
        assert bit_error_prob(math.inf) == 0.0
        with pytest.raises(ValueError, match="Eb/N0"):
            bit_error_prob(-math.inf)

    @pytest.mark.parametrize("snr_db", [3083.0, 4000.0, -4000.0])
    def test_snr_past_the_floats_raises(self, snr_db):
        # Eb/N0 = 10^(snr/10) overflows (or underflows to 0): a ValueError,
        # as for every SNR it cannot price, not the float's OverflowError
        with pytest.raises(ValueError, match="Eb/N0"):
            bit_error_prob(snr_db)

    def test_nan_snr_raises(self):
        # a NaN SNR would otherwise come back as a NaN probability
        with pytest.raises(ValueError, match="Eb/N0 must be positive"):
            bit_error_prob(math.nan)


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf, 3082.0,
                                    3083.0, -3236.0, -3237.0, 4000.0,
                                    -4000.0, -10.0, 0.0])
def test_one_snr_rule_for_every_consumer(snr_db):
    # the Gaussian reference, the channel law and the CLI refuse exactly the
    # SNRs bit_error_prob cannot price, each with the rule's ValueError
    try:
        bit_error_prob(snr_db)
        refused = False
    except ValueError:
        refused = True
    syms = modulate_words(WORDS)
    for consumer in (lambda: transmit(syms, snr_db, NoiseSource(0)),
                     lambda: coeff_error_dist(snr_db)):
        if refused:
            with pytest.raises(ValueError, match="Eb/N0"):
                consumer()
        else:
            consumer()
    assert _snr_in_range(snr_db) is not refused


class TestBerFormulas:
    def test_approaches_half(self):
        assert abs(bit_error_prob(-120.0) - 0.5) < 1e-5

    def test_minus_10_db(self):
        assert abs(bit_error_prob(-10.0) - 0.3274) < 1e-4

    def test_monotone_decreasing(self):
        grid = np.linspace(0.01, 20.0, 100)
        vals = [bit_error_prob(10.0 * math.log10(x)) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestMonteCarloBer:
    def test_matches_analytic_at_4db(self):
        # 10^6 bits, 2% relative agreement with the closed form
        n_words = 500_000
        rng = np.random.default_rng(123)
        words = rng.integers(0, 4, n_words)
        rx = demodulate_symbols(transmit(modulate_words(words), 4.0,
                                         NoiseSource(99)))
        flips = rx ^ words
        errors = int(((flips & 1) + (flips >> 1)).sum())
        empirical = errors / (2 * n_words)
        analytic = bit_error_prob(4.0)
        assert abs(empirical - analytic) <= 0.02 * analytic


def test_channel_plan_fields():
    plan = ChannelPlan(10.0, -10.0)
    assert plan.snr_msb_db == 10.0 and plan.snr_lsb_db == -10.0
