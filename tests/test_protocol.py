import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wkyber.core import (centered, decompress, gen_matrices, intt, mul_sum,
                         noise_vectors, ntt, pack12, poly_mul_schoolbook,
                         squeeze, unpack_ring)
from wkyber.modem import ChannelPlan, NoiseSource
from wkyber.params import KYBER768, N, Q, PARAM_SETS
from wkyber.pke import (decrypt, encrypt, keygen, keygen_bytes, random_bits,
                        wk_decrypt, wk_encrypt)
from wkyber.protocol import (SESSION_BATCH, kem_v1_decaps, kem_v1_encaps,
                             run_sessions, session_plans, snr_warnings)
from wkyber.transport import (coeff_error_dist, receive_coeffs, send_coeffs,
                              send_key)

SEED = bytes(32)
P768 = KYBER768
NOMINAL_PLANS = (ChannelPlan(10.0, 10.0), ChannelPlan(10.0, -10.0))
V2_PLANS = (ChannelPlan(10.0, -10.0), ChannelPlan(10.0, -10.0))


def stream(label, n):
    """The first n bytes of the test stream under label."""
    return squeeze(b"\x11" * 32, label, n)


def key_pairs(labels, params=P768, with_error=True, seeds_a=None):
    """One key pair per label, a batch, from the keygen noise at the head
    of the label's stream: (pks, s).  The matrix seeds default to SEED."""
    n = keygen_bytes(params, with_error)
    return keygen(seeds_a or [SEED] * len(labels),
                  [stream(label, n) for label in labels], params, with_error)


def kem_keys(labels, params=P768, seeds_a=None):
    """V1 KEM keys, one per label, each stream read as keygen noise and
    then the 32-byte implicit-rejection secret z: (pks, s, zs)."""
    n = keygen_bytes(params)
    keys = [stream(label, n + 32) for label in labels]
    pks, s = keygen(seeds_a or [SEED] * len(labels),
                    [key[:n] for key in keys], params)
    return pks, s, [key[n:] for key in keys]


def kem_pair(key_label, msg_label):
    """A V1 key pair and an encapsulation to it, each a batch of one:
    (keys, secrets s, zs, ciphertexts, shared secrets)."""
    pks, s, zs = kem_keys([key_label])
    bits = random_bits([stream(msg_label, 32)])
    return (pks, s, zs, *kem_v1_encaps(pks, bits, P768))


class TestV1Pke:
    def test_keygen_is_baseline(self):
        # z follows the keygen noise in the stream and leaves the key alone
        (seeds1, b1), s1, _ = kem_keys([b"a"])
        (seeds2, b2), s2 = keygen([SEED], [stream(b"a", keygen_bytes(P768))],
                                  P768)
        assert seeds1 == seeds2
        assert np.array_equal(b1, b2) and np.array_equal(s1, s2)

    def test_never_samples_ciphertext_noise(self):
        # u - A^T s' must vanish before transmission
        pks, _ = key_pairs([b"b"])
        bits = random_bits([stream(b"m", 32)])
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
        pks, _ = key_pairs([b"c"])
        c = wk_encrypt(pks, np.zeros((1, N), dtype=np.int64), [bytes(32)],
                       P768)
        assert c.shape == (1, 4, N) and not c.any()

    def test_deterministic(self):
        pks, _ = key_pairs([b"d"])
        bits = random_bits([stream(b"m2", 32)])
        assert np.array_equal(wk_encrypt(pks, bits, [b"\x01" * 32], P768),
                              wk_encrypt(pks, bits, [b"\x01" * 32], P768))

    def test_noiseless_roundtrip(self):
        pks, s = key_pairs([b"e"])
        ms = stream(b"m3", 5 * 64)  # (bits, coins) in turn
        for i in range(5):
            bits = random_bits([ms[64 * i:64 * i + 32]])
            c = wk_encrypt(pks, bits, [ms[64 * i + 32:64 * (i + 1)]], P768)
            assert np.array_equal(wk_decrypt(s, c), bits)
            s_u = mul_sum(ntt(s[0])[None], c[0, :-1])[0]
            noise = centered(c[0, -1] - s_u - decompress(bits[0], 1))
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
        pks, _ = key_pairs([b"g"])
        (coeffs,) = wk_encrypt(pks, np.zeros((1, N), dtype=np.int64),
                               [b"\x03" * 32], P768)
        assert coeffs.shape == (P768.k + 1, N)
        assert len(pack12(coeffs)) == 12 * (P768.k + 1) * N // 8
        assert np.array_equal(unpack_ring(pack12(coeffs), P768.k + 1), coeffs)


class TestV2Pke:
    def test_b_is_exactly_as(self):
        (_, b), s = key_pairs([b"h"], with_error=False)
        assert np.array_equal(b, mul_sum(gen_matrices([SEED], P768), s))

    def test_zero_secret_gives_zero_b(self):
        (_, b), _ = keygen([SEED], [bytes(keygen_bytes(P768, False))], P768,
                           with_error=False)
        assert b.shape == (1, 3, N) and not b.any()

    def test_received_b_offsets_match_channel_pmf(self):
        # transport the clean key at (10, -10); b_rx - As follows the PMF
        counts = np.zeros(7, dtype=np.int64)
        total = 0
        for i in range(40):
            (seeds, b), _ = key_pairs([b"i" + bytes([i])], with_error=False)
            sent = send_key(seeds, b, ChannelPlan(10.0, -10.0),
                            [NoiseSource(1000 + i)])
            seeds_rx, b_rx, fails = receive_coeffs(*sent)
            assert seeds_rx == [SEED] and fails.tolist() == [0]
            off = centered(b_rx.reshape(b.shape) - b)
            counts += np.bincount(off.ravel() + 3, minlength=7)
            total += off.size
        expected = coeff_error_dist(-10.0).masses * total
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 35

    def test_roundtrip_over_channel(self):
        seeds = [2000 + i for i in range(20)]
        assert run_sessions("v2", P768, V2_PLANS, seeds).outcome.all()


class TestKem:
    def test_encaps_deterministic_given_message(self):
        pks, _ = key_pairs([b"j"])
        bits = random_bits([stream(b"m4", 32)])
        c1, s1 = kem_v1_encaps(pks, bits, P768)
        c2, s2 = kem_v1_encaps(pks, bits, P768)
        assert np.array_equal(c1, c2) and s1 == s2

    def test_error_free_channel_matches(self):
        pks, s, zs, c, secrets = kem_pair(b"k", b"m5")
        assert kem_v1_decaps(s, zs, pks, c, P768) == secrets

    def test_honest_session_msb_policy(self):
        seeds = [3000 + i for i in range(10)]
        assert run_sessions("v1", P768, NOMINAL_PLANS, seeds).outcome.all()

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
        pks, s, zs = kem_keys([b"wrap4"])
        seeds, b = pks
        assert b[0, 2, 185] == Q - 1
        bits = random_bits([stream(b"m8", 32)])
        for rise in (1, 2, 3):
            b_rx = b.copy()
            b_rx[0, 2, 185] = (Q - 1 + rise) % Q
            c, secrets = kem_v1_encaps((seeds, b_rx), bits, P768)
            assert kem_v1_decaps(s, zs, pks, c, P768) == secrets

    def test_encaps_rejects_one_message_for_two_keys(self):
        pks, _, _ = kem_keys([b"k1", b"k2"])
        with pytest.raises(ValueError):
            kem_v1_encaps(pks, random_bits([stream(b"m1", 32)]), P768)

    def test_decaps_rejects_one_z_for_two_sessions(self):
        pks, s, zs = kem_keys([b"k1", b"k2"])
        c, _ = kem_v1_encaps(pks, random_bits([stream(b"m1", 32),
                                               stream(b"m2", 32)]), P768)
        with pytest.raises(ValueError):
            kem_v1_decaps(s, zs[:1], pks, c, P768)

    @pytest.mark.parametrize("length", [0, 1, 31, 33])
    def test_decaps_rejects_z_of_wrong_length(self, length):
        # an empty z would make the rejection secret a public function of
        # the ciphertext
        pks, s, _, c, _ = kem_pair(b"zlen", b"m9")
        with pytest.raises(ValueError, match="32 bytes"):
            kem_v1_decaps(s, [bytes(length)], pks, c, P768)

    def test_msb_policy_allows_only_the_q_wrap(self):
        from wkyber.protocol import _coeffs_match
        clean = np.array([[Q - 1, Q - 1, Q - 1, Q - 1, 7]])
        # stored q - 1 = 4 * 832 whose w2 rises to 1..3 wraps to 0..2
        assert _coeffs_match(clean, np.array([[Q - 1, 0, 1, 2, 4]]))
        for wrong in (3, Q - 2):
            assert not _coeffs_match(clean, np.array([[wrong, 0, 1, 2, 4]]))
        assert not _coeffs_match(clean, np.array([[Q - 1, 0, 1, 2, 8]]))


@pytest.fixture(scope="module")
def static_key_sessions():
    """One V1 key at k = 3 replicated over 200 sessions, each encapsulating
    its own message: (keys, secrets s, zs, ciphertexts, shared secrets)."""
    sessions = 200
    ((seed,), b), s, zs = kem_keys([b"static"])
    keys = ([seed] * sessions, np.repeat(b, sessions, axis=0))
    bits = random_bits([stream(b"to-static-%d" % i, 32)
                        for i in range(sessions)])
    return (keys, np.repeat(s, sessions, axis=0), zs * sessions,
            *kem_v1_encaps(keys, bits, P768))


class TestKemCheck:
    """The check accepts exactly the ciphertexts with the sender's w10
    words (and the q wrap), and no choice of w2 bits reaches decryption."""

    @pytest.mark.parametrize("sign", [0, 1, -1],
                             ids=["random", "aligned", "reversed"])
    def test_exposed_bits_are_no_oracle(self, static_key_sessions, sign):
        # sign = +-1 sets each w2 of u to 3 or 0 so that every change moves
        # coefficient 0 of s^T u the same way: u_j[p] meets s_j[-p mod n]
        # there, negated for p > 0 (X^n = -1).  A decryption that read the
        # exposed bits would then accept or reject by the secret's signs
        keys, s, zs, c, secrets = static_key_sessions
        u = c[:, :-1]
        if sign:
            p = np.arange(N)
            weight = sign * centered(s[0])[:, -p % N] * np.where(p, -1, 1)
            w2 = np.where(weight > 0, 3, np.where(weight < 0, 0, u & 3))
        else:
            w2 = np.random.default_rng(5).integers(0, 4, u.shape)
        tampered = c.copy()
        tampered[:, :-1] = ((u & ~3) + w2) % Q     # w10 kept, or wrapped
        assert kem_v1_decaps(s, zs, keys, tampered, P768) == secrets

    @given(rewrites=st.lists(
        st.tuples(st.one_of(st.just((0, 23)),
                            st.tuples(st.integers(0, P768.k),
                                      st.integers(0, N - 1))),
                  st.integers(0, 3)), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_any_w2_rewrite_keeps_the_key(self, rewrites):
        pks, s, zs, c, secrets = kem_pair(b"k", b"m5")
        assert c[0, 0, 23] == Q - 1        # the wrap coefficient
        tampered = c.copy()
        for (row, col), w2 in rewrites:
            tampered[0, row, col] = ((c[0, row, col] & ~3) + w2) % Q
        assert kem_v1_decaps(s, zs, pks, tampered, P768) == secrets

    @given(at=st.one_of(st.just((0, 23)),
                        st.tuples(st.integers(0, P768.k),
                                  st.integers(0, N - 1))),
           value=st.one_of(st.integers(0, Q - 1),
                           st.sampled_from([0, 2, 3, Q - 4, Q - 1])))
    @settings(max_examples=60, deadline=None)
    def test_any_w10_change_rejects(self, at, value):
        pks, s, zs, c, _ = kem_pair(b"k", b"m5")
        sent = int(c[(0, *at)])
        assume(value >> 2 != sent >> 2 and not (sent == Q - 1 and value <= 2))
        c[(0, *at)] = value
        rejection = squeeze(zs[0] + squeeze(pack12(c[0]), b"ct", 32), b"rej",
                            32)
        assert kem_v1_decaps(s, zs, pks, c, P768) == [rejection]


class TestSessions:
    def test_transcript_deterministic(self):
        a = run_sessions("v1", P768, NOMINAL_PLANS, [5], collect_offsets=True)
        b = run_sessions("v1", P768, NOMINAL_PLANS, [5], collect_offsets=True)
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
        assert snr_warnings("v2", (ChannelPlan(10, -3), ChannelPlan(10, -3)))
        assert not snr_warnings("v1", NOMINAL_PLANS)

    def test_policy_boundaries(self):
        def ct_warnings(plan):
            return snr_warnings("v1", (NOMINAL_PLANS[0], plan))

        assert not ct_warnings(ChannelPlan(10.0, -10.0))
        assert not ct_warnings(ChannelPlan(10.0, -5.0))
        assert ct_warnings(ChannelPlan(9.9, -10.0)) == [
            "ciphertext: MSB-path SNR 9.9 dB below 10 dB; decode failures "
            "not negligible"]
        assert ct_warnings(ChannelPlan(10.0, -4.9)) == [
            "ciphertext: LSB-path SNR -4.9 dB above -5 dB; injected error "
            "too narrow"]

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

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_all_parameter_sets(self, params):
        assert run_sessions("v1", params, NOMINAL_PLANS, [8]).outcome.all()
        assert run_sessions("v2", params, V2_PLANS, [8]).outcome.all()


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
        labels = [seed.to_bytes(4, "little") + bytes([i])
                  for i in range(sessions)]
        seeds_a = [bytes([i]) * 32 for i in range(sessions)]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (sessions, N))
        coins = [rng.bytes(32) for _ in range(sessions)]
        bad = data.draw(st.integers(0, sessions - 1), label="bad session")
        row = data.draw(st.integers(0, params.k), label="row")
        col = data.draw(st.integers(0, N - 1), label="column")

        pks, s, zs = kem_keys(labels, params, seeds_a)
        c, secrets = kem_v1_encaps(pks, bits, params)
        received = c.copy()
        # + 4 changes w10 = c >> 2, and q - 1 + 4 wraps to 3, not to 0..2
        received[bad, row, col] = (received[bad, row, col] + 4) % Q
        decapsulated = kem_v1_decaps(s, zs, pks, received, params)
        ct = wk_encrypt(pks, bits, coins, params)
        decrypted = wk_decrypt(s, ct)
        base_pks, base_s = key_pairs(labels, params, seeds_a=seeds_a)
        u_c, v_c = encrypt(base_pks, bits, coins, params)
        opened = decrypt(base_s, u_c, v_c, params)
        for i in range(sessions):
            one = slice(i, i + 1)
            pks_i = (seeds_a[one], pks[1][one])
            (seeds_i, b_i), s_i, z_i = kem_keys(labels[one], params,
                                                seeds_a[one])
            assert seeds_i == seeds_a[one] and np.array_equal(b_i, pks[1][one])
            assert np.array_equal(s_i, s[one]) and z_i == zs[one]
            c_i, secret_i = kem_v1_encaps(pks_i, bits[one], params)
            assert np.array_equal(c_i, c[one]) and secret_i == secrets[one]
            assert kem_v1_decaps(s[one], zs[one], pks_i, received[one],
                                 params) == decapsulated[one]
            assert np.array_equal(wk_encrypt(pks_i, bits[one], coins[one],
                                             params), ct[one])
            assert np.array_equal(wk_decrypt(s[one], ct[one]), decrypted[one])
            pk_i, s_i = key_pairs(labels[one], params, seeds_a=seeds_a[one])
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

        observed = []
        for i in range(60):
            # the key stream read as keygen noise, message bits, coins
            nk = keygen_bytes(P768, with_error=False)
            kg = stream(b"ks" + bytes([i]), nk + 64)
            (seeds, b), s = keygen([SEED], [kg[:nk]], P768, with_error=False)
            sent = send_key(seeds, b, ChannelPlan(10, -10),
                            [NoiseSource(7000 + i)])
            seeds_rx, b_rx, _ = receive_coeffs(*sent)
            pks_rx = (seeds_rx, b_rx.reshape(b.shape))
            bits = random_bits([kg[nk:nk + 32]])
            (c,) = wk_encrypt(pks_rx, bits, [kg[nk + 32:]], P768)
            words = send_coeffs(c[None], ChannelPlan(10, -10),
                                [NoiseSource(8000 + i)])
            c_rx = receive_coeffs(*words)[1].reshape(c.shape)
            s_u = mul_sum(ntt(s[0])[None], c_rx[:-1])[0]
            observed.append(centered(c_rx[-1] - s_u - decompress(bits[0], 1)))
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
