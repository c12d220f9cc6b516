import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkyber.core import (XofStream, centered, decompress, gen_matrices,
                         inner_product, intt, matvec_mul, noise_vectors,
                         pack12, poly_mul_schoolbook, unpack_ring)
from wkyber.modem import ChannelPlan, NoiseSource
from wkyber.params import KYBER768, N, Q, PARAM_SETS
from wkyber.pke import (decrypt, encrypt, keygen, random_bits, wk_decrypt,
                        wk_encrypt)
from wkyber.protocol import (SESSION_BATCH, _receive_pks, _send_pk,
                             kem_v1_decaps, kem_v1_encaps, kem_v1_keygen,
                             run_sessions, session_plans, snr_warnings,
                             v2_keygen)
from wkyber.transport import coeff_error_dist, send_coeffs

SEED = bytes(32)
P768 = KYBER768
NOMINAL_PLANS = (ChannelPlan(10.0, 10.0), ChannelPlan(10.0, -10.0))
V2_PLANS = (ChannelPlan(10.0, -10.0), ChannelPlan(10.0, -10.0))


def stream(label):
    return XofStream(b"\x11" * 32, label)


def kem_pair(key_label, msg_label):
    """A V1 key pair and an encapsulation to it, each a batch of one:
    (keys, secrets s, zs, ciphertexts, shared secrets)."""
    pks, s, zs = kem_v1_keygen([SEED], [stream(key_label)], P768)
    bits = random_bits([stream(msg_label)])
    return (pks, s, zs, *kem_v1_encaps(pks, bits, P768))


class TestV1Pke:
    def test_keygen_is_baseline(self):
        (seeds1, b1), s1, _ = kem_v1_keygen([SEED], [stream(b"a")], P768)
        (seeds2, b2), s2 = keygen([SEED], [stream(b"a")], P768)
        assert seeds1 == seeds2
        assert np.array_equal(b1, b2) and np.array_equal(s1, s2)

    def test_never_samples_ciphertext_noise(self):
        # u - A^T s' must vanish before transmission
        pks, _ = keygen([SEED], [stream(b"b")], P768)
        bits = random_bits([stream(b"m")])
        coins = b"\x22" * 32
        (c,) = wk_encrypt(pks, bits, [coins], P768)
        sp = noise_vectors([coins], b"sp", P768.eta1, P768.k)[0]
        a = intt(gen_matrices([SEED], P768)[0])
        for i in range(P768.k):
            u_i = sum(poly_mul_schoolbook(a[j, i], sp[j])
                      for j in range(P768.k)) % Q
            assert np.array_equal(c[i], u_i)

    def test_zero_sprime_zero_message(self, monkeypatch):
        from wkyber import pke
        monkeypatch.setattr(pke, "noise_vectors",
                            lambda seeds, label, eta, k:
                            np.zeros((len(seeds), k, N), dtype=np.int64))
        pks, _ = keygen([SEED], [stream(b"c")], P768)
        c = wk_encrypt(pks, np.zeros((1, N), dtype=np.int64), [bytes(32)],
                       P768)
        assert c.shape == (1, 4, N) and not c.any()

    def test_deterministic(self):
        pks, _ = keygen([SEED], [stream(b"d")], P768)
        bits = random_bits([stream(b"m2")])
        assert np.array_equal(wk_encrypt(pks, bits, [b"\x01" * 32], P768),
                              wk_encrypt(pks, bits, [b"\x01" * 32], P768))

    def test_noiseless_roundtrip(self):
        pks, s = keygen([SEED], [stream(b"e")], P768)
        ms = stream(b"m3")
        for _ in range(5):
            bits = random_bits([ms])
            c = wk_encrypt(pks, bits, [ms.read(32)], P768)
            assert np.array_equal(wk_decrypt(s, c), bits)
            noise = centered(c[0, -1] - inner_product(s[0], c[0, :-1])
                             - decompress(bits[0], 1))
            assert np.abs(noise).max() < 832

    def test_injected_boundary_noise_flips_bit(self):
        # magnitude 832 = round(q/4) on an encoded 1 flips that bit
        coeffs = np.zeros((1, 4, N), dtype=np.int64)
        coeffs[0, 3] = 1665
        coeffs[0, 3, 7] = (1665 + 832) % Q
        (bits,) = wk_decrypt(np.zeros((1, 3, N), dtype=np.int64), coeffs)
        assert bits[7] == 0
        assert (np.delete(bits, 7) == 1).all()

    def test_ciphertext_never_compressed(self):
        pks, _ = keygen([SEED], [stream(b"g")], P768)
        (coeffs,) = wk_encrypt(pks, np.zeros((1, N), dtype=np.int64),
                               [b"\x03" * 32], P768)
        assert coeffs.shape == (P768.k + 1, N)
        assert len(pack12(coeffs)) == 12 * (P768.k + 1) * N // 8
        assert np.array_equal(unpack_ring(pack12(coeffs), P768.k + 1), coeffs)


class TestV2Pke:
    def test_b_is_exactly_as(self):
        (_, b), s = v2_keygen([SEED], [stream(b"h")], P768)
        assert np.array_equal(b, matvec_mul(gen_matrices([SEED], P768), s))

    def test_zero_secret_gives_zero_b(self):
        (_, b), _ = v2_keygen([SEED], [io.BytesIO(bytes(4096))], P768)
        assert b.shape == (1, 3, N) and not b.any()

    def test_received_b_offsets_match_channel_pmf(self):
        # transport the clean key at (10, -10); b_rx - As follows the PMF
        counts = np.zeros(7, dtype=np.int64)
        total = 0
        for i in range(40):
            ((seed,), (b,)), _ = v2_keygen([SEED], [stream(b"i" + bytes([i]))],
                                           P768)
            sent = _send_pk(seed, b, ChannelPlan(10.0, -10.0),
                            NoiseSource(1000 + i))
            (seeds_rx, (b_rx,)), fails = _receive_pks([sent], P768)
            assert seeds_rx == [SEED] and fails.tolist() == [0]
            off = centered(b_rx - b)
            counts += np.bincount(off.ravel() + 3, minlength=7)
            total += off.size
        expected = coeff_error_dist(-10.0).masses * total
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 35

    def test_roundtrip_over_channel(self):
        seeds = [2000 + i for i in range(20)]
        assert run_sessions("v2", P768, V2_PLANS, seeds).outcome.all()


class TestKeyTransport:
    @given(params=st.sampled_from(list(PARAM_SETS.values())),
           seeds=st.lists(st.binary(min_size=32, max_size=32), min_size=1,
                          max_size=3),
           coeff_seed=st.integers(0, 2 ** 32 - 1),
           tops=st.lists(st.integers(0, 4 * N - 1), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_noiseless_leg_returns_the_exact_key(self, params, seeds,
                                                 coeff_seed, tops):
        # at +inf dB nothing flips: any seed survives its packing into 26
        # blocks of 10 bits (4 pad bits), any canonical b, q - 1 included,
        # its 10 + 2-bit split
        b = np.random.default_rng(coeff_seed).integers(
            0, Q, (len(seeds), params.k * N))
        b[:, [t % (params.k * N) for t in tops]] = Q - 1
        b = b.reshape(len(seeds), params.k, N)
        plan = ChannelPlan(math.inf, math.inf)
        sent = [_send_pk(seed, b_i, plan, NoiseSource(i))
                for i, (seed, b_i) in enumerate(zip(seeds, b))]
        (seeds_rx, b_rx), failures = _receive_pks(sent, params)
        assert seeds_rx == seeds and np.array_equal(b_rx, b)
        assert not failures.any()


class TestKem:
    def test_encaps_deterministic_given_message(self):
        pks, _ = keygen([SEED], [stream(b"j")], P768)
        bits = random_bits([stream(b"m4")])
        c1, s1 = kem_v1_encaps(pks, bits, P768)
        c2, s2 = kem_v1_encaps(pks, bits, P768)
        assert np.array_equal(c1, c2) and s1 == s2

    def test_error_free_channel_matches(self):
        pks, s, zs, c, secrets = kem_pair(b"k", b"m5")
        assert kem_v1_decaps(s, zs, pks, c, P768) == secrets

    def test_honest_session_msb_policy(self):
        seeds = [3000 + i for i in range(10)]
        assert run_sessions("v1", P768, NOMINAL_PLANS, seeds).outcome.all()

    def test_honest_session_exact_policy_rejects(self):
        # the channel legitimately perturbs exposed bits, so exact comparison
        # fails essentially always
        seeds = [4000 + i for i in range(5)]
        assert not run_sessions("v1", P768, NOMINAL_PLANS, seeds,
                                fo_policy="exact").outcome.any()

    def test_tampered_protected_word_rejects(self):
        pks, s, zs, c, secrets = kem_pair(b"l", b"m6")
        c_bad = c.copy()
        c_bad[0, 0, 100] = (c_bad[0, 0, 100] + 4 * 16) % Q  # w10 hit
        out = kem_v1_decaps(s, zs, pks, c_bad, P768)
        assert out != secrets
        # implicit rejection is deterministic, silent and key-dependent
        assert out == kem_v1_decaps(s, zs, pks, c_bad, P768)
        assert kem_v1_decaps(s, [b"\x55" * 32], pks, c_bad, P768) != out

    def test_lsb_perturbation_accepted_by_msb_policy(self):
        # the channel rewrites w2 only: 4 * w10 + w2' mod q
        pks, s, zs, c, secrets = kem_pair(b"n", b"m7")
        perturbed = c.copy()
        perturbed[0, 0, :64] = ((perturbed[0, 0, :64] & ~3)
                                + np.random.default_rng(0)
                                .integers(0, 4, 64)) % Q
        assert kem_v1_decaps(s, zs, pks, perturbed, P768) == secrets

    def test_carry_into_protected_word_rejects(self):
        # 4w + 3 -> 4(w + 1) is within 3 of the honest value but changes w10
        pks, s, zs, c, secrets = kem_pair(b"n", b"m7")
        bumped = c.copy()
        idx = tuple(np.argwhere((bumped & 3) == 3)[0])
        bumped[idx] += 1
        assert kem_v1_decaps(s, zs, pks, bumped, P768) != secrets

    def test_public_key_q_wrap_accepted(self):
        # a stored b = q - 1 = 4 * 832 whose w2 bits rise by 1..3 reaches the
        # encapsulator as 0..2; both sides must still bind the same key
        pks, s, zs = kem_v1_keygen([SEED], [stream(b"wrap4")], P768)
        seeds, b = pks
        assert b[0, 2, 185] == Q - 1
        bits = random_bits([stream(b"m8")])
        for rise in (1, 2, 3):
            b_rx = b.copy()
            b_rx[0, 2, 185] = (Q - 1 + rise) % Q
            c, secrets = kem_v1_encaps((seeds, b_rx), bits, P768)
            assert kem_v1_decaps(s, zs, pks, c, P768) == secrets

    def test_decaps_rejects_unknown_policy_before_any_work(self, monkeypatch):
        from wkyber import protocol
        pks, s, zs, c, _ = kem_pair(b"k", b"m5")
        calls = []

        def counted(name):
            real = getattr(protocol, name)

            def wrapper(*args):
                calls.append(name)
                return real(*args)
            return wrapper
        for name in ("kem_v1_encaps", "wk_decrypt"):
            monkeypatch.setattr(protocol, name, counted(name))
        with pytest.raises(ValueError, match="bogus"):
            kem_v1_decaps(s, zs, pks, c, P768, policy="bogus")
        assert calls == []

    def test_msb_policy_allows_only_the_q_wrap(self):
        from wkyber.protocol import _coeffs_match
        clean = np.array([Q - 1, Q - 1, Q - 1, Q - 1, 7])
        # stored q - 1 = 4 * 832 whose w2 rises to 1..3 wraps to 0..2
        assert _coeffs_match(clean, np.array([Q - 1, 0, 1, 2, 4]), "msb-only")
        for wrong in (3, Q - 2):
            received = np.array([wrong, 0, 1, 2, 4])
            assert not _coeffs_match(clean, received, "msb-only")
        assert not _coeffs_match(clean, np.array([Q - 1, 0, 1, 2, 8]),
                                 "msb-only")


class TestSessions:
    def test_transcript_deterministic(self):
        a = run_sessions("v1", P768, NOMINAL_PLANS, [5], collect_offsets=True)
        b = run_sessions("v1", P768, NOMINAL_PLANS, [5], collect_offsets=True)
        assert run_constants(a) == run_constants(b)
        assert session_columns(a) == session_columns(b)

    @pytest.mark.parametrize("sessions", [0, 1, SESSION_BATCH + 1])
    def test_record_shapes(self, sessions):
        seeds = list(range(900, 900 + sessions))
        rec = run_sessions("v1", P768, NOMINAL_PLANS, seeds,
                           collect_offsets=True)
        assert (len(rec.outcome) == len(rec.bch_failures_pk)
                == len(rec.bch_failures_ct) == len(seeds))
        assert rec.outcome.dtype == bool
        assert rec.bch_failures_pk.dtype == rec.bch_failures_ct.dtype == np.int64
        assert rec.ct_error_offsets.shape == (len(seeds), (P768.k + 1) * N)
        assert run_sessions("v1", P768, NOMINAL_PLANS,
                            seeds).ct_error_offsets is None

    def test_failures_counted_per_leg(self):
        # only the leg sent at 0 dB loses blocks, whichever leg that is
        clean, noisy = ChannelPlan(math.inf, math.inf), ChannelPlan(0.0, -10.0)
        rec = run_sessions("v1", P768, (clean, noisy), [1, 2, 3])
        assert not rec.bch_failures_pk.any() and rec.bch_failures_ct.all()
        rec = run_sessions("v1", P768, (noisy, clean), [1, 2, 3])
        assert rec.bch_failures_pk.all() and not rec.bch_failures_ct.any()

    def test_policy_warning_recorded(self):
        rec = run_sessions("v2", P768,
                           (ChannelPlan(10, -3), ChannelPlan(10, -3)), [6])
        assert rec.warnings
        rec = run_sessions("v1", P768, NOMINAL_PLANS, [6])
        assert not rec.warnings

    def test_policy_boundaries(self):
        assert not snr_warnings(ChannelPlan(10.0, -10.0), "x")
        assert not snr_warnings(ChannelPlan(10.0, -5.0), "x")
        assert snr_warnings(ChannelPlan(9.9, -10.0), "x") == [
            "x: MSB-path SNR 9.9 dB below 10 dB; decode failures not "
            "negligible"]
        assert snr_warnings(ChannelPlan(10.0, -4.9), "x") == [
            "x: LSB-path SNR -4.9 dB above -5 dB; injected error too narrow"]

    def test_session_plans(self):
        # v1's key travels with both paths protected, v2's as the ciphertext
        assert session_plans("v1", 6.0, -10.0) == (ChannelPlan(6.0, 6.0),
                                                   ChannelPlan(6.0, -10.0))
        assert session_plans("v2", 6.0, -10.0) == (ChannelPlan(6.0, -10.0),
                                                   ChannelPlan(6.0, -10.0))

    def test_offsets_collection(self):
        rec = run_sessions("v1", P768, NOMINAL_PLANS, [7],
                           collect_offsets=True)
        assert rec.ct_error_offsets is not None
        assert len(rec.ct_error_offsets[0]) == (P768.k + 1) * N
        assert np.abs(rec.ct_error_offsets).max() <= 3

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            run_sessions("v3", P768, NOMINAL_PLANS, [0])

    @pytest.mark.parametrize("seeds", [[], [0]], ids=["no-seeds", "one-seed"])
    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_rejects_unknown_fo_policy_before_any_work(self, version, seeds,
                                                       monkeypatch):
        from wkyber import protocol

        def batch(*args):
            raise AssertionError("a session batch ran")
        monkeypatch.setattr(protocol, "_run_batch", batch)
        with pytest.raises(ValueError, match="bogus"):
            run_sessions(version, P768, NOMINAL_PLANS, seeds,
                         fo_policy="bogus")

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_all_parameter_sets(self, params):
        assert run_sessions("v1", params, NOMINAL_PLANS, [8]).outcome.all()
        assert run_sessions("v2", params, V2_PLANS, [8]).outcome.all()


def run_constants(rec):
    return rec.version, rec.k, rec.pk_plan, rec.ct_plan, rec.warnings


def session_columns(rec):
    """A run's per-session arrays as lists, session i at index i."""
    return [rec.outcome.tolist(), rec.bch_failures_pk.tolist(),
            rec.bch_failures_ct.tolist(), rec.ct_error_offsets.tolist()]


class TestBatches:
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("snr_db", [0.0, 3.0])
    @given(first=st.integers(0, 2 ** 40),
           cuts=st.lists(st.integers(1, 6), min_size=1, max_size=4))
    @settings(max_examples=3, deadline=None)
    def test_any_split_gives_the_same_transcripts(self, version, snr_db,
                                                  params, first, cuts):
        # at 0 and 3 dB seed blocks and b fail to decode and sessions
        # mismatch; each session's entries must depend on its seed alone
        plans = session_plans(version, snr_db, -10.0)
        seeds = [first + i for i in range(sum(cuts))]
        whole = run_sessions(version, params, plans, seeds,
                             collect_offsets=True)
        parts, at = [], 0
        for size in cuts:
            parts.append(run_sessions(version, params, plans,
                                      seeds[at:at + size],
                                      collect_offsets=True))
            at += size
        assert all(run_constants(p) == run_constants(whole) for p in parts)
        assert session_columns(whole) == [
            sum(column, []) for column in zip(*map(session_columns, parts))]
        if snr_db == 0.0:
            assert whole.bch_failures_pk.any()


class TestBatchIndependence:
    @given(params=st.sampled_from(list(PARAM_SETS.values())),
           sessions=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_batch_equals_one_session_calls(self, params, sessions, seed,
                                            data):
        # B sessions in one call give what B one-session calls give, for
        # the KEM, the wireless PKE and the baseline PKE; one session's
        # received ciphertext has a protected word hit, and only that
        # session falls back to implicit rejection
        def key_rng(i):
            return stream(seed.to_bytes(4, "little") + bytes([i]))

        def streams():
            return [key_rng(i) for i in range(sessions)]
        seeds_a = [bytes([i]) * 32 for i in range(sessions)]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (sessions, N))
        coins = [rng.bytes(32) for _ in range(sessions)]
        bad = data.draw(st.integers(0, sessions - 1), label="bad session")
        row = data.draw(st.integers(0, params.k), label="row")
        col = data.draw(st.integers(0, N - 1), label="column")

        pks, s, zs = kem_v1_keygen(seeds_a, streams(), params)
        c, secrets = kem_v1_encaps(pks, bits, params)
        received = c.copy()
        # + 4 changes w10 = c >> 2, and q - 1 + 4 wraps to 3, not to 0..2
        received[bad, row, col] = (received[bad, row, col] + 4) % Q
        decapsulated = kem_v1_decaps(s, zs, pks, received, params)
        ct = wk_encrypt(pks, bits, coins, params)
        decrypted = wk_decrypt(s, ct)
        base_pks, base_s = keygen(seeds_a, streams(), params)
        u_c, v_c = encrypt(base_pks, bits, coins, params)
        opened = decrypt(base_s, u_c, v_c, params)
        for i in range(sessions):
            one = slice(i, i + 1)
            pks_i = (seeds_a[one], pks[1][one])
            (seeds_i, b_i), s_i, z_i = kem_v1_keygen(seeds_a[one],
                                                     [key_rng(i)], params)
            assert seeds_i == seeds_a[one] and np.array_equal(b_i, pks[1][one])
            assert np.array_equal(s_i, s[one]) and z_i == zs[one]
            c_i, secret_i = kem_v1_encaps(pks_i, bits[one], params)
            assert np.array_equal(c_i, c[one]) and secret_i == secrets[one]
            assert kem_v1_decaps(s[one], zs[one], pks_i, received[one],
                                 params) == decapsulated[one]
            assert np.array_equal(wk_encrypt(pks_i, bits[one], coins[one],
                                             params), ct[one])
            assert np.array_equal(wk_decrypt(s[one], ct[one]), decrypted[one])
            pk_i, s_i = keygen(seeds_a[one], [key_rng(i)], params)
            assert np.array_equal(pk_i[1], base_pks[1][one])
            assert np.array_equal(s_i, base_s[one])
            u_i, v_i = encrypt(pk_i, bits[one], coins[one], params)
            assert np.array_equal(u_i, u_c[one])
            assert np.array_equal(v_i, v_c[one])
            assert np.array_equal(decrypt(s_i, u_i, v_i, params), opened[one])
        assert [a == b for a, b in zip(decapsulated, secrets)] == \
            [i != bad for i in range(sessions)]
        assert np.array_equal(decrypted, bits)
        assert np.array_equal(opened, bits)


class TestNoiseAccounting:
    def test_v2_noise_matches_convolution_engine(self):
        """End-to-end per-coefficient decryption noise vs the analytic law."""
        from wkyber.reliability import _noise_terms, wkyber_v2_model
        from wkyber.protocol import _receive_cts

        observed = []
        for i in range(60):
            kg = stream(b"ks" + bytes([i]))
            ((seed,), (b,)), s = v2_keygen([SEED], [kg], P768)
            sent = _send_pk(seed, b, ChannelPlan(10, -10), NoiseSource(7000 + i))
            pks_rx, _ = _receive_pks([sent], P768)
            bits = random_bits([kg])
            (c,) = wk_encrypt(pks_rx, bits, [kg.read(32)], P768)
            words = send_coeffs(c, ChannelPlan(10, -10), NoiseSource(8000 + i))
            (c_rx,), _ = _receive_cts([words], P768)
            observed.append(centered(c_rx[-1] - inner_product(s[0], c_rx[:-1])
                                     - decompress(bits[0], 1)))
        observed = np.concatenate(observed)

        key, rest = _noise_terms(P768, wkyber_v2_model(P768, -10.0), None)
        dist = key.convolve(rest)
        support = np.array(list(dist.support))
        cdf = np.cumsum(dist.masses)
        # KS distance between the empirical sample and the analytic CDF
        xs = np.sort(observed)
        emp = np.arange(1, len(xs) + 1) / len(xs)
        idx = np.searchsorted(support, xs, side="right") - 1
        ks = float(np.abs(emp - cdf[idx]).max())
        assert ks < 0.02, ks
