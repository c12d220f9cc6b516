import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import binom

from wkyber.bch import CODE_N, codeword_error_prob
from wkyber.core import centered
from wkyber.modem import (ChannelPlan, NoiseSource, ber_4qam, modulate_words,
                          snr_db_to_linear)
from wkyber.params import Q
from wkyber.transport import (channel_error_pmf, coeff_error_dist,
                              dist_stddev, join_coeffs, receive_blocks,
                              send_blocks, send_coeffs)

NOISELESS = ChannelPlan(math.inf, math.inf)
NOMINAL = ChannelPlan(10.0, -10.0)


def receive(words):
    """(coefficients, BCH decode failure count) of received (msb, lsb)
    words."""
    msb, lsb = words
    w10, failed = receive_blocks(msb, len(msb))
    return join_coeffs(w10, lsb), int(failed.sum())


def noiseless_split(coeffs):
    """(w10, w2) as a noiseless send carries them: protected block, then
    the exposed word."""
    msb, lsb = send_coeffs(np.asarray(coeffs), NOISELESS, NoiseSource(0))
    w10, failed = receive_blocks(msb, len(lsb))
    assert not failed.any()
    return w10.tolist(), lsb.tolist()


def offset_chi2(plan, coeff_seed, noise_seed, total=200_000):
    """Chi-square of the received offset histogram against the analytic
    PMF of the plan's exposed path, over four parts of total / 4."""
    counts = np.zeros(7, dtype=np.int64)
    for part in range(4):
        rng = np.random.default_rng(coeff_seed + part)
        coeffs = rng.integers(0, Q, total // 4)
        rx, _ = receive(send_coeffs(coeffs, plan,
                                    NoiseSource(noise_seed + part)))
        off = centered(rx - coeffs)
        counts += np.bincount(off + 3, minlength=7)
    expected = coeff_error_dist(plan.snr_lsb_db).masses * total
    return float(((counts - expected) ** 2 / expected).sum())


class TestSplit:
    def test_examples(self):
        assert noiseless_split([0, 3, 3328]) == ([0, 0, 832], [0, 3, 0])

    def test_rejects_out_of_range(self):
        for bad in (Q, 4096, -1):
            with pytest.raises(ValueError):
                send_coeffs(np.array([bad]), NOISELESS, NoiseSource(0))

    @given(st.integers(0, Q - 1))
    def test_identity(self, x):
        (w10,), (w2,) = noiseless_split([x])
        assert 4 * w10 + w2 == x

    def test_any_shape_sent_row_major(self):
        coeffs = np.random.default_rng(5).integers(0, Q, (3, 8))
        rx, _ = receive(send_coeffs(coeffs, NOISELESS, NoiseSource(0)))
        assert np.array_equal(rx, coeffs.ravel())


class TestFrames:
    def test_noiseless_roundtrip(self):
        coeffs = np.random.default_rng(0).integers(0, Q, 300)
        rx, failures = receive(send_coeffs(coeffs, NOISELESS, NoiseSource(0)))
        assert (rx == coeffs).all() and failures == 0

    def test_frame_length_contract(self):
        # a rank-3 ciphertext (u then v) is 1024 coefficients, each one
        # 31-bit block (16 symbols with the pad bit) and one 2-bit word
        # (1 symbol): 17408 symbols on the wire
        coeffs = np.random.default_rng(3).integers(0, Q, 1024)
        msb, lsb = send_coeffs(coeffs, NOISELESS, NoiseSource(0))
        assert len(msb) == len(lsb) == 1024
        assert msb.max() < 1 << CODE_N and lsb.max() < 4
        assert 1024 * ((CODE_N + 1) // 2 + 1) == 17408

    def test_noiseless_draws_nothing(self):
        # an infinite SNR leaves the noise source where it was
        noise = NoiseSource(12)
        send_coeffs(np.arange(64), NOISELESS, noise)
        send_blocks(np.arange(8), math.inf, noise)
        assert noise.pairs(2, 1.0).tobytes() == \
            NoiseSource(12).pairs(2, 1.0).tobytes()

    def test_deterministic(self):
        coeffs = np.random.default_rng(1).integers(0, Q, 64)
        msb1, lsb1 = send_coeffs(coeffs, NOMINAL, NoiseSource(9))
        msb2, lsb2 = send_coeffs(coeffs, NOMINAL, NoiseSource(9))
        assert np.array_equal(msb1, msb2) and np.array_equal(lsb1, lsb2)

    def test_malformed_length_rejected(self):
        coeffs = np.zeros(8, dtype=np.int64)
        msb, _ = send_coeffs(coeffs, NOISELESS, NoiseSource(0))
        with pytest.raises(ValueError):
            receive_blocks(msb, 9)
        with pytest.raises(ValueError):
            receive_blocks(msb, 4)

    def test_rejects_coefficients_outside_ring(self):
        with pytest.raises(ValueError):
            send_coeffs(np.array([Q]), NOISELESS, NoiseSource(0))

    def test_offsets_confined_at_nominal_plan(self):
        rng = np.random.default_rng(2)
        coeffs = rng.integers(0, Q, 60_000)
        rx, failures = receive(send_coeffs(coeffs, NOMINAL, NoiseSource(3)))
        assert failures == 0
        off = centered(rx - coeffs)
        assert off.min() >= -3 and off.max() <= 3

    def test_offset_histogram_matches_analytic(self):
        assert offset_chi2(NOMINAL, 40, 50) < 35  # df = 6, p ~ 1e-5

    def test_block_decode_failures_surface(self):
        # at very low MSB SNR failures must be counted, not raised
        words = np.random.default_rng(4).integers(0, 1024, 2000)
        got, failed = receive_blocks(send_blocks(words, -5.0, NoiseSource(8)),
                                     2000)
        assert failed.any()
        assert len(got) == 2000


class TestChannelStatistics:
    """Received words against the closed-form laws of the hard-decision
    channel: every bit flips on its own with p = ber_4qam(Eb/N0)."""

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 6.0, 10.0])
    def test_w2_bit_flip_rates(self, snr_db):
        # protected path noiseless, coefficients below q - 1 (no wrap), so
        # the received w2 bits are the sent ones XOR the channel's flips
        n = 100_000
        coeffs = np.random.default_rng(60).integers(0, Q - 1, n)
        plan = ChannelPlan(math.inf, snr_db)
        noise = NoiseSource(6100 + int(snr_db))
        rx, failures = receive(send_coeffs(coeffs, plan, noise))
        assert failures == 0 and np.array_equal(rx >> 2, coeffs >> 2)
        flips = (rx ^ coeffs) & 3
        p = ber_4qam(snr_db_to_linear(snr_db))
        # each bit alone at p, and both at once at p^2 (independence)
        for pattern, prob in ((1, p), (2, p), (3, p * p)):
            count = np.count_nonzero((flips & pattern) == pattern)
            lo, hi = binom.interval(1 - 1e-6, n, prob)
            assert lo <= count <= hi, (pattern, count, n * prob)

    @pytest.mark.parametrize("snr_lsb_db", [-5.0, 0.0])
    def test_offset_histogram_across_snr(self, snr_lsb_db):
        plan = ChannelPlan(10.0, snr_lsb_db)
        seed = 6200 + 10 * int(-snr_lsb_db)
        assert offset_chi2(plan, seed, seed + 5) < 35  # df = 6, p ~ 1e-5

    @pytest.mark.parametrize("snr_db", [0.0, 1.0, 2.0, 3.0])
    def test_block_error_rate_matches_analytic(self, snr_db):
        # a block is wrong (failed or miscorrected) iff more than 5 of its
        # 31 bits flip
        n = 100_000
        sent = np.random.default_rng(63).integers(0, 1 << 10, n)
        noise = NoiseSource(6400 + int(snr_db))
        got, failed = receive_blocks(send_blocks(sent, snr_db, noise), n)
        rate = np.count_nonzero((got != sent) | failed) / n
        analytic = codeword_error_prob(ber_4qam(snr_db_to_linear(snr_db)))
        se = math.sqrt(analytic * (1 - analytic) / n)
        assert abs(rate - analytic) <= 3 * se, (rate, analytic)


class TestErrorPmf:
    def brute_force(self, p):
        """Enumerate the 16 (sent, received) pairs through the real maps."""
        pmf = {e: 0.0 for e in range(-3, 4)}
        for sent in range(4):
            s = modulate_words(np.array([sent]))[0]
            for recv in range(4):
                r = modulate_words(np.array([recv]))[0]
                p_i = p if r.real != s.real else 1.0 - p
                p_q = p if r.imag != s.imag else 1.0 - p
                pmf[recv - sent] += 0.25 * p_i * p_q
        return pmf

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.1, 0.3274, 0.5])
    def test_matches_enumeration(self, p):
        analytic = channel_error_pmf(p).as_dict()
        oracle = self.brute_force(p)
        for e in range(-3, 4):
            assert abs(analytic[e] - oracle[e]) <= 1e-15

    def test_point_mass_at_zero_noise(self):
        d = channel_error_pmf(0.0)
        assert d.as_dict()[0] == 1.0
        assert dist_stddev(d) == 0.0

    @given(st.floats(0.0, 1.0), st.sampled_from(["exact", "approx"]))
    @example(0.0, "exact")
    @example(1.0, "approx")
    def test_law_is_symmetric_pmf_on_minus3_to_3(self, p, variant):
        d = channel_error_pmf(p, variant)
        assert d.support == range(-3, 4)
        assert (d.masses >= 0).all()
        assert abs(d.masses.sum() - 1.0) <= 1e-12
        assert np.abs(d.masses - d.masses[::-1]).max() <= 1e-15

    def test_sigma_minus_10(self):
        assert abs(dist_stddev(coeff_error_dist(-10.0)) - 1.28) <= 0.02

    def test_sigma_minus_5_at_least_one(self):
        assert dist_stddev(coeff_error_dist(-5.0)) >= 1.0

    def test_sigma_strictly_decreasing(self):
        sigmas = [dist_stddev(coeff_error_dist(s)) for s in range(-15, 1)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            channel_error_pmf(1.5)
        with pytest.raises(ValueError):
            channel_error_pmf(0.1, "bogus")
