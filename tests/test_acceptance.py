"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo criteria
use fixed seeds and 3-standard-error bands, so the whole module is
deterministic.
"""

import math
import random

import numpy as np
from scipy.special import betainc

from wkyber.bch import (CODE_K, CODE_N, CODE_T, bch_encode,
                        codeword_error_prob, decode_words)
from wkyber.core import squeeze
from wkyber.modem import (ChannelPlan, NoiseSource, bit_error_prob,
                          demodulate_symbols, modulate_words, transmit)
from wkyber.params import PARAM_SETS
from wkyber.pke import decrypt, encrypt, keygen, keygen_bytes, random_bits
from wkyber.reliability import failure_prob_rows, ker_monte_carlo, sigma_vs_snr
from wkyber.transport import (channel_error_pmf, coeff_error_dist, dist_stddev,
                              receive_blocks, send_blocks)

WORKERS = 2


def report(num, text):
    print(f"\nACCEPTANCE {num:>2} PASS: {text}")


def test_criterion_01_coefficient_error_pmf():
    """Analytic PMF == 16-case brute-force enumeration, and sums to one."""
    def brute_force(p):
        pmf = {e: 0.0 for e in range(-3, 4)}
        for sent in range(4):
            s = modulate_words(np.array([sent]))[0]
            for recv in range(4):
                r = modulate_words(np.array([recv]))[0]
                p_i = p if r.real != s.real else 1.0 - p
                p_q = p if r.imag != s.imag else 1.0 - p
                pmf[recv - sent] += 0.25 * p_i * p_q
        return pmf

    for p_b in (0.0, 0.01, 0.1, 0.3274, 0.5):
        dist = channel_error_pmf(p_b)
        assert abs(dist.masses.sum() - 1.0) <= 1e-15
        oracle = brute_force(p_b)
        for e, mass in dist.as_dict().items():
            assert abs(mass - oracle[e]) <= 1e-15, (p_b, e)
    report(1, "coefficient error PMF matches enumeration at 5 p_b values, "
              "sums to 1")


def test_criterion_02_bch_correctness():
    """All weight-0/1/2 patterns exhaustively and 10^4 random weight-3..5."""
    rnd = random.Random(20260811)
    # (received word, sent message, its error weight), decoded in one batch
    cases = [(bch_encode(msg), msg, 0) for msg in range(1 << CODE_K)]
    for _ in range(50):
        msg = rnd.randrange(1 << CODE_K)
        cw = bch_encode(msg)
        for pos in range(CODE_N):
            cases.append((cw ^ (1 << pos), msg, 1))
    for _ in range(3):
        msg = rnd.randrange(1 << CODE_K)
        cw = bch_encode(msg)
        for p1 in range(CODE_N):
            for p2 in range(p1 + 1, CODE_N):
                cases.append((cw ^ (1 << p1) ^ (1 << p2), msg, 2))
    for _ in range(10_000):
        msg = rnd.randrange(1 << CODE_K)
        weight = rnd.choice((3, 4, 5))
        received = bch_encode(msg)
        for pos in rnd.sample(range(CODE_N), weight):
            received ^= 1 << pos
        cases.append((received, msg, weight))
    words, msgs, weights = np.array(cases).T
    got, corrections, failed = decode_words(words)
    assert not failed.any()
    assert np.array_equal(got, msgs)
    assert np.array_equal(corrections, weights)
    report(2, "BCH(31,11,t=5) corrects all patterns up to weight 5 "
              "(exhaustive w<=2, 10^4 random w=3..5)")


def test_criterion_03_codeword_failure():
    """Analytic tail == incomplete beta to 1e-12; Monte Carlo within 3 SE."""
    for p_b in (1e-4, 1e-3, 0.01, 0.03, 0.058, 0.1, 0.2, 0.3):
        tail = codeword_error_prob(p_b)
        beta_form = float(1.0 - betainc(CODE_N - CODE_T, CODE_T + 1, 1.0 - p_b))
        assert abs(tail - beta_form) <= 1e-12

    snr = 0.8  # p_b ~ 0.06, P_ce ~ 1e-2
    p_b = bit_error_prob(snr)
    analytic = codeword_error_prob(p_b)
    n_words = 100_000
    wrong = 0
    for part in range(4):
        rng = np.random.default_rng(300 + part)
        msgs = rng.integers(0, 1 << 10, n_words // 4)
        got, failed = receive_blocks(
            send_blocks(msgs, snr, NoiseSource(400 + part)), n_words // 4)
        wrong += int(((got != msgs) | failed).sum())
    se = math.sqrt(analytic * (1 - analytic) / n_words)
    assert abs(wrong / n_words - analytic) <= 3 * se, (wrong / n_words, analytic)
    report(3, f"codeword failure: beta form agrees to 1e-12; Monte Carlo "
              f"{wrong / n_words:.5f} vs analytic {analytic:.5f} "
              f"(P_ce ~ 1e-2, 10^5 words, 3 SE)")


def test_criterion_04_4qam_ber():
    """10^6 bits per SNR in {0,2,4,6,8,10} dB, all within 3 binomial SE."""
    n_bits = 1_000_000
    n_words = n_bits // 2
    for point, snr in enumerate((0, 2, 4, 6, 8, 10)):
        analytic = bit_error_prob(snr)
        rng = np.random.default_rng(500 + point)
        words = rng.integers(0, 4, n_words)
        rx = demodulate_symbols(transmit(modulate_words(words), float(snr),
                                         NoiseSource(600 + point)))
        flips = rx ^ words
        errors = int(((flips & 1) + (flips >> 1)).sum())
        se = math.sqrt(analytic * (1 - analytic) / n_bits)
        assert abs(errors / n_bits - analytic) <= 3 * se, snr
    report(4, "4QAM Monte Carlo BER within 3 SE of the closed form at "
              "0..10 dB, 10^6 bits each")


def test_criterion_05_failure_probability_engine():
    """Published failure figures: baseline within 1 log2, wireless within 3."""
    rows = failure_prob_rows(-10.0)
    table = {(r[0], r[1], r[3]): r[4] for r in rows}
    targets = [
        (("kyber512", 2, ""), -139.0, 1.0),
        (("kyber768", 3, ""), -164.0, 1.0),
        (("kyber1024", 4, ""), -175.0, 1.0),
        (("wkyber-v1", 2, "exact"), -219.1, 3.0),
        (("wkyber-v1", 3, "exact"), -227.2, 3.0),
        (("wkyber-v2", 3, "approx"), -138.5, 3.0),
        (("wkyber-v2", 4, "approx"), -105.2, 3.0),
    ]
    for key, want, tol in targets:
        got = table[key]
        assert abs(got - want) <= tol, (key, got, want)
    got_v1k3 = table[("wkyber-v1", 3, "exact")]
    report(5, "failure engine: kyber512/768/1024 = "
              f"{table[('kyber512', 2, '')]:0.1f}/{table[('kyber768', 3, '')]:0.1f}/"
              f"{table[('kyber1024', 4, '')]:0.1f} (+-1); wireless rows e.g. "
              f"v1 k=3 {got_v1k3:0.1f} vs -227.2 (+-3), both PMF variants reported")


def test_criterion_06_sigma_curve():
    """sigma(-5) >= 1, sigma(-10) = 1.28 +- 0.02, monotone on -15..0 dB."""
    pairs = sigma_vs_snr(range(-15, 1))
    sigmas = [s for _, s in pairs]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    lookup = dict(pairs)
    assert lookup[-5.0] >= 1.0
    assert abs(lookup[-10.0] - 1.28) <= 0.02
    report(6, f"sigma curve monotone; sigma(-5)={lookup[-5.0]:.3f} >= 1, "
              f"sigma(-10)={lookup[-10.0]:.4f} within 1.28 +- 0.02")


def test_criterion_07_end_to_end_exchanges():
    """10^3 V1 KEM and 10^3 V2 PKE sessions, zero mismatches."""
    params = PARAM_SETS[768]
    v1 = ker_monte_carlo("v1", params,
                         (ChannelPlan(10, 10), ChannelPlan(10, -10)),
                         trials=1000, seed=71, workers=WORKERS)
    assert v1 == 0, v1
    # V2 is a PKE with ephemeral keys; its key also travels at (10, -10)
    v2 = ker_monte_carlo("v2", params,
                         (ChannelPlan(10, -10), ChannelPlan(10, -10)),
                         trials=1000, seed=72, workers=WORKERS)
    assert v2 == 0, v2
    report(7, "10^3 V1 KEM sessions and 10^3 V2 PKE sessions at the nominal "
              "plans completed with zero mismatches")


def test_criterion_08_ker_shape():
    """MSB SNR sweep {6,8,10,12,15} dB at LSB -10 dB, 10^4 trials per point:
    nonincreasing KER, zero failures at 15 dB."""
    params = PARAM_SETS[768]
    kers = []
    for point, snr_msb in enumerate((6.0, 8.0, 10.0, 12.0, 15.0)):
        plans = (ChannelPlan(snr_msb, snr_msb), ChannelPlan(snr_msb, -10.0))
        failures = ker_monte_carlo("v1", params, plans, trials=10_000,
                                   seed=800 + point, workers=WORKERS)
        kers.append(failures / 10_000)
    assert all(a >= b for a, b in zip(kers, kers[1:])), kers
    assert kers[-1] == 0.0, kers
    report(8, f"KER sweep over MSB SNR {{6,8,10,12,15}} dB nonincreasing "
              f"({kers}); zero failures at 15 dB")


def test_criterion_09_baseline_pke():
    """10^3 roundtrips per parameter set and the NTT-vs-schoolbook oracle."""
    for params in PARAM_SETS.values():
        # per trial: keygen noise from one stream; matrix seed, message
        # bits and coins, 32 bytes each, from the other
        nk = keygen_bytes(params)
        kg = squeeze(b"\x09" * 32, b"acc9-kg" + params.name.encode(),
                     1000 * nk)
        ms = squeeze(b"\x09" * 32, b"acc9-m" + params.name.encode(),
                     1000 * 96)
        failures = 0
        for i in range(1000):
            seed_a, msg, coins = (ms[at:at + 32]
                                  for at in range(96 * i, 96 * (i + 1), 32))
            pks, s = keygen([seed_a], [kg[i * nk:(i + 1) * nk]], params)
            bits = random_bits([msg])
            u_c, v_c = encrypt(pks, bits, [coins], params)
            if not np.array_equal(decrypt(s, u_c, v_c, params), bits):
                failures += 1
        assert failures == 0, params.name

    from wkyber.core import mul_sum, ntt, poly_mul_schoolbook
    from wkyber.params import N, Q
    rng = np.random.default_rng(9)
    for _ in range(1000):
        a = rng.integers(0, Q, N)
        b = rng.integers(0, Q, N)
        assert np.array_equal(mul_sum(ntt(a)[None, None], b[None])[0],
                              poly_mul_schoolbook(a, b))
    report(9, "baseline PKE: 3 x 10^3 roundtrips with zero failures; NTT "
              "equals the schoolbook oracle on 10^3 random pairs")


def test_criterion_10_sigma_is_the_estimator_handoff():
    """Lattice attack costs are out of scope; the deviation curve (criterion
    6) is the validated hand-off those estimates consume."""
    lookup = dict(sigma_vs_snr([-10.0]))
    assert abs(lookup[-10.0] - dist_stddev(coeff_error_dist(-10.0))) < 1e-15
    report(10, "attack-cost estimation is out of scope; the sigma hand-off "
               "is validated by criterion 6")
