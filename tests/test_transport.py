import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from wkyber.bch import CODE_N, ENCODE_TABLE, codeword_error_prob, decode_words
from wkyber.core import centered
from wkyber.modem import (ChannelPlan, NoiseSource, bit_error_prob,
                          flip_masks, modulate_words)
from wkyber.params import N, PARAM_SETS, Q
from wkyber.reliability import (channel_error_pmf, coeff_error_dist,
                                dist_stddev)
from wkyber.transport import SEED_BLOCKS, send_coeffs, send_key

NOISELESS = ChannelPlan(math.inf, math.inf)
NOMINAL = ChannelPlan(10.0, -10.0)


def send_one(coeffs, plan, noise):
    """(received words, BCH decode failure count) of one session's
    coefficients, sent as a batch of one."""
    words, failures = send_coeffs(np.asarray(coeffs)[None], plan, [noise])
    return words[0], int(failures[0])


def noiseless_split(coeffs):
    """(w10, w2) of the words a noiseless send delivers: the protected
    block's message, then the exposed word."""
    words, failures = send_one(coeffs, NOISELESS, NoiseSource(0))
    assert failures == 0
    return (words >> 2).tolist(), (words & 3).tolist()


def seed_words(seed):
    """A 32-byte seed's 26 protected 10-bit words, most significant bit
    first, 4 zero pad bits at the end: the scalar oracle of the key head."""
    bits = [(byte >> i) & 1 for byte in seed for i in range(8)] + [0] * 4
    return [int("".join(map(str, bits[at:at + 10])), 2)
            for at in range(0, 260, 10)]


def seed_of(words):
    """The seed packed from 26 received 10-bit words (seed_words' inverse,
    its 4 pad bits dropped)."""
    bits = "".join(f"{int(w):010b}" for w in words)[:256]
    return bytes(int(bits[at:at + 8][::-1], 2) for at in range(0, 256, 8))


def offset_chi2(plan, coeff_seed, noise_seed, total=200_000):
    """Chi-square of the received offset histogram against the analytic
    PMF of the plan's exposed path, over four parts of total / 4."""
    counts = np.zeros(7, dtype=np.int64)
    for part in range(4):
        rng = np.random.default_rng(coeff_seed + part)
        coeffs = rng.integers(0, Q, total // 4)
        rx, _ = send_one(coeffs, plan, NoiseSource(noise_seed + part))
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
                send_one([bad], NOISELESS, NoiseSource(0))

    @given(st.integers(0, Q - 1))
    def test_identity(self, x):
        (w10,), (w2,) = noiseless_split([x])
        assert 4 * w10 + w2 == x

    def test_any_shape_sent_row_major(self):
        # received words come back in the coefficients' shape, and a noisy
        # send of (3, 8) draws its flips as the row-major (24,) send does
        coeffs = np.random.default_rng(5).integers(0, Q, (3, 8))
        rx, _ = send_one(coeffs, NOISELESS, NoiseSource(0))
        assert np.array_equal(rx, coeffs)
        plan = ChannelPlan(2.0, -10.0)
        rx, failures = send_one(coeffs, plan, NoiseSource(6))
        flat, flat_failures = send_one(coeffs.ravel(), plan, NoiseSource(6))
        assert np.array_equal(rx.ravel(), flat) and failures == flat_failures


class TestFrames:
    def test_noiseless_roundtrip(self):
        coeffs = np.random.default_rng(0).integers(0, Q, 300)
        rx, failures = send_one(coeffs, NOISELESS, NoiseSource(0))
        assert (rx == coeffs).all() and failures == 0

    def test_frame_length_contract(self):
        # a rank-3 ciphertext (u then v) is 1024 coefficients, each one
        # 31-bit block (16 symbols with the pad bit) and one 2-bit word
        # (1 symbol): 17408 symbols on the wire.  The leg draws exactly
        # those bits' flips, and the receiver gets one 12-bit word each
        coeffs = np.random.default_rng(3).integers(0, Q, (1, 4, N))
        noise = NoiseSource(13)
        words, _ = send_coeffs(coeffs, ChannelPlan(2.0, -10.0), [noise])
        assert words.shape == coeffs.shape and words.max() < 1 << 12
        fresh = NoiseSource(13)
        flip_masks([fresh], [(1024, CODE_N, bit_error_prob(2.0)),
                             (1024, 2, bit_error_prob(-10.0))])
        assert noise.pairs(2, 1.0).tobytes() == fresh.pairs(2, 1.0).tobytes()
        assert 1024 * ((CODE_N + 1) // 2 + 1) == 17408

    def test_noiseless_draws_nothing(self):
        # an infinite SNR leaves the noise source where it was
        noise = NoiseSource(12)
        send_one(np.arange(64), NOISELESS, noise)
        send_key([bytes(range(32))], np.arange(64)[None], NOISELESS, [noise])
        assert noise.pairs(2, 1.0).tobytes() == \
            NoiseSource(12).pairs(2, 1.0).tobytes()

    def test_deterministic(self):
        coeffs = np.random.default_rng(1).integers(0, Q, 64)
        rx1, failures1 = send_one(coeffs, NOMINAL, NoiseSource(9))
        rx2, failures2 = send_one(coeffs, NOMINAL, NoiseSource(9))
        assert np.array_equal(rx1, rx2) and failures1 == failures2

    def test_rejects_coefficients_outside_ring(self):
        with pytest.raises(ValueError):
            send_one([Q], NOISELESS, NoiseSource(0))

    def test_offsets_confined_at_nominal_plan(self):
        rng = np.random.default_rng(2)
        coeffs = rng.integers(0, Q, 60_000)
        rx, failures = send_one(coeffs, NOMINAL, NoiseSource(3))
        assert failures == 0
        off = centered(rx - coeffs)
        assert off.min() >= -3 and off.max() <= 3

    def test_offset_histogram_matches_analytic(self):
        assert offset_chi2(NOMINAL, 40, 50) < 35  # df = 6, p ~ 1e-5

    def test_block_decode_failures_surface(self):
        # at very low MSB SNR failures must be counted, not raised
        coeffs = np.random.default_rng(4).integers(0, Q, 2000)
        rx, failures = send_one(coeffs, ChannelPlan(-5.0, -5.0),
                                NoiseSource(8))
        assert failures > 0
        assert len(rx) == 2000 and rx.max() < 1 << 12


class TestLegs:
    @given(params=st.sampled_from(list(PARAM_SETS.values())),
           key=st.booleans(),
           seeds=st.lists(st.binary(min_size=32, max_size=32), min_size=1,
                          max_size=3),
           coeff_seed=st.integers(0, 2 ** 32 - 1),
           tops=st.lists(st.integers(0, 5 * N - 1), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_noiseless_leg_returns_the_exact_key(self, params, key, seeds,
                                                 coeff_seed, tops):
        # at +inf dB nothing flips: any seed survives its packing into 26
        # blocks of 10 bits (4 pad bits), any canonical b or ciphertext,
        # q - 1 included, its 10 + 2-bit split; a ciphertext leg has no seed
        rows = params.k if key else params.k + 1
        coeffs = np.random.default_rng(coeff_seed).integers(
            0, Q, (len(seeds), rows * N))
        coeffs[:, [t % (rows * N) for t in tops]] = Q - 1
        noises = [NoiseSource(i) for i in range(len(seeds))]
        c = coeffs.reshape(len(seeds), rows, N)
        if key:
            seeds_rx, c_rx, failures = send_key(seeds, c, NOISELESS, noises)
            assert seeds_rx == seeds
        else:
            c_rx, failures = send_coeffs(c, NOISELESS, noises)
        assert np.array_equal(c_rx, c)
        assert failures.tolist() == [0] * len(seeds)

    @pytest.mark.parametrize("key", [False, True])
    def test_batch_rows_equal_batches_of_one(self, key):
        # each session's received words depend only on its own noise
        # source, at a plan where both paths flip
        plan = ChannelPlan(2.0, -10.0)
        seeds = [bytes([i]) * 32 for i in range(5)]
        coeffs = np.random.default_rng(70).integers(0, Q, (5, 3, N))

        def send(rows):
            noises = [NoiseSource(7100 + i) for i in rows]
            if key:
                return send_key([seeds[i] for i in rows], coeffs[rows], plan,
                                noises)
            return send_coeffs(coeffs[rows], plan, noises)

        *head, words, failures = send(list(range(5)))
        assert words.shape == (5, 3, N) and failures.shape == (5,)
        assert failures.any()    # blocks failed, so the counts are tested
        for i in range(5):
            *one_head, one_words, one_failures = send([i])
            assert [h[i] for h in head] == [h[0] for h in one_head]
            assert np.array_equal(words[i], one_words[0])
            assert failures[i] == one_failures[0]

    @pytest.mark.parametrize("snr", [2.0, -5.0])
    def test_key_leg_draws_its_seed_blocks_first(self, snr):
        # a key leg's first draw is its seed blocks' flips: the received
        # seed is the decode of the seed words' codewords XOR the first
        # SEED_BLOCKS words of flips from a fresh copy of the same source
        seed = bytes(range(32))
        b = np.random.default_rng(71).integers(0, Q, (1, 2, N))
        (seed_rx,), _, _ = send_key([seed], b, ChannelPlan(snr, -10.0),
                                    [NoiseSource(72)])
        flips = flip_masks([NoiseSource(72)],
                           [(SEED_BLOCKS, CODE_N, bit_error_prob(snr))])[0]
        assert flips.any()   # flips were drawn
        w10, _, _ = decode_words(ENCODE_TABLE[seed_words(seed)] ^ flips)
        assert seed_rx == seed_of(w10 & 0x3FF)

    @pytest.mark.parametrize("key", [False, True])
    def test_received_words_equal_the_decoded_flips(self, key):
        # the oracle of a leg at a plan where both paths flip: encode each
        # head word and w10, XOR the flips a fresh copy of each noise
        # source draws, decode, keep 10 bits, then add the flipped w2 bits
        plan = ChannelPlan(2.0, -10.0)
        c = np.random.default_rng(73).integers(0, Q, (3, 2, N))
        seeds = [bytes([40 + i]) * 32 for i in range(3)]
        head = np.array([seed_words(seed) if key else [] for seed in seeds],
                        dtype=np.int64)
        h, n, p_msb = head.shape[1], 2 * N, bit_error_prob(2.0)

        def noises():
            return [NoiseSource(7400 + i) for i in range(3)]

        flips = flip_masks(noises(), [(h, CODE_N, p_msb), (n, CODE_N, p_msb),
                                      (n, 2, bit_error_prob(-10.0))])
        rows = c.reshape(3, n)
        assert flips[:, :h + n].any() and flips[:, h + n:].any()
        w10, _, failed = decode_words(ENCODE_TABLE[np.concatenate(
            (head, rows >> 2), axis=1)] ^ flips[:, :h + n])
        w10 = (w10 & 0x3FF).reshape(3, h + n)
        expected = 4 * w10[:, h:] + ((rows & 3) ^ flips[:, h + n:])
        if key:
            seeds_rx, words, failures = send_key(seeds, c, plan, noises())
            assert seeds_rx == [seed_of(w) for w in w10[:, :h]]
        else:
            words, failures = send_coeffs(c, plan, noises())
        assert np.array_equal(words, expected.reshape(c.shape))
        assert failures.tolist() == failed.reshape(3, -1).sum(axis=1).tolist()

    def test_rejects_one_noise_source_per_batch(self):
        coeffs = np.zeros((2, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="differ in count"):
            send_coeffs(coeffs, NOISELESS, [NoiseSource(0)])
        with pytest.raises(ValueError, match="differ in count"):
            send_key([bytes(32)] * 2, coeffs, NOISELESS, [NoiseSource(0)])

    # zero sessions give empty results of the documented shapes, as keygen,
    # wk_decrypt and run_sessions do
    @pytest.mark.parametrize("call, shapes", [
        pytest.param(lambda: send_coeffs(np.zeros((0, 3, N), np.int64),
                                         NOMINAL, []),
                     [(0, 3, N), (0,)], id="send_coeffs"),
        pytest.param(lambda: send_key([], np.zeros((0, 2, N), np.int64),
                                      NOMINAL, []),
                     [(0,), (0, 2, N), (0,)], id="send_key"),
        pytest.param(lambda: [flip_masks([], [(3, CODE_N, 0.1), (2, 2, 0.5)])],
                     [(0, 5)], id="flip_masks"),
    ])
    def test_zero_sessions(self, call, shapes):
        out = call()
        assert [np.shape(x) for x in out] == shapes
        assert all(x.dtype == np.int64 for x in out
                   if isinstance(x, np.ndarray))

    def test_rejects_seeds_of_other_lengths(self):
        # 31 and 33 bytes join to 64, which would split as two 32-byte
        # seeds with one byte moved from the second session to the first
        coeffs = np.zeros((2, 8), dtype=np.int64)
        with pytest.raises(ValueError, match="needs 32 bytes"):
            send_key([bytes(31), bytes(33)], coeffs, NOISELESS,
                     [NoiseSource(0), NoiseSource(1)])


class TestChannelStatistics:
    """Received words against the closed-form laws of the hard-decision
    channel: every bit flips on its own with p = bit_error_prob(snr)."""

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 6.0, 10.0])
    def test_w2_bit_flip_rates(self, snr_db):
        # protected path noiseless, so the received w2 bits are the sent
        # ones XOR the channel's flips
        n = 100_000
        coeffs = np.random.default_rng(60).integers(0, Q, n)
        plan = ChannelPlan(math.inf, snr_db)
        noise = NoiseSource(6100 + int(snr_db))
        rx, failures = send_one(coeffs, plan, noise)
        assert failures == 0 and np.array_equal(rx >> 2, coeffs >> 2)
        flips = (rx ^ coeffs) & 3
        p = bit_error_prob(snr_db)
        # each bit alone at p, and both at once at p^2 (independence)
        for pattern, prob in ((1, p), (2, p), (3, p * p)):
            count = np.count_nonzero((flips & pattern) == pattern)
            lo, hi = binom.interval(1 - 1e-6, n, prob)
            assert lo <= count <= hi, (pattern, count, n * prob)

    def test_received_words_are_not_reduced(self):
        # q - 1 = 4 * 832 whose w2 bits rise arrives as 3329..3331, a word
        # past q that keeps w10 = 832 (a residue mod q would read 0..2)
        coeffs = np.full(4000, Q - 1)
        rx, failures = send_one(coeffs, ChannelPlan(math.inf, -5.0),
                                NoiseSource(6150))
        assert failures == 0 and (rx >> 2 == 832).all()
        assert (rx >= Q).any() and rx.max() < 1 << 12

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
        p_b = bit_error_prob(snr_db)
        flips = flip_masks([NoiseSource(6400 + int(snr_db))],
                           [(n, CODE_N, p_b)])[0]
        got, _, failed = decode_words(ENCODE_TABLE[sent] ^ flips)
        rate = np.count_nonzero((got != sent) | failed) / n
        analytic = codeword_error_prob(p_b)
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
        assert d.support.tolist() == list(range(-3, 4))
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

    @pytest.mark.parametrize("p", [1.5, math.nan, -0.1])
    @pytest.mark.parametrize("law", [codeword_error_prob, channel_error_pmf],
                             ids=lambda law: law.__name__)
    def test_rejects_probability_outside_unit_interval(self, law, p):
        # both laws take their bit error probability through one check
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            law(p)
