import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import poly_mul_schoolbook
from wkyber.core import (centered, compress, decompress, gen_matrices, intt,
                         mul_sum, noise_vectors, ntt, pack12, squeeze,
                         unpack12)
from wkyber.modem import ChannelPlan, NoiseSource, modulate_words
from wkyber.params import KYBER768, N, Q, PARAM_SETS
from wkyber.pke import (decrypt, encrypt, keygen, keygen_bytes, random_bits,
                        wk_decrypt, wk_encrypt)
from wkyber.protocol import (SESSION_BATCH, kem_v1_decaps, kem_v1_encaps,
                             run_sessions, session_plans, snr_warnings)
from wkyber.reliability import coeff_error_dist
from wkyber.transport import send_coeffs, send_key

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
        assert np.array_equal(unpack12(pack12(coeffs)).reshape(coeffs.shape),
                              coeffs)


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
            seeds_rx, b_rx, fails = send_key(
                seeds, b, ChannelPlan(10.0, -10.0), [NoiseSource(1000 + i)])
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
        # the channel rewrites w2 only: the received word is 4 * w10 + w2'
        pks, s, zs, c, secrets = kem_pair(b"n", b"m7")
        perturbed = c.copy()
        perturbed[0, 0, :64] = ((perturbed[0, 0, :64] & ~3)
                                + np.random.default_rng(0).integers(0, 4, 64))
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
        # encapsulator as the word 3329..3331, past q but with w10 = 832;
        # both sides must still bind the same key
        pks, s, zs = kem_keys([b"wrap4"])
        seeds, b = pks
        assert b[0, 2, 185] == Q - 1
        bits = random_bits([stream(b"m8", 32)])
        for rise in (1, 2, 3):
            b_rx = b.copy()
            b_rx[0, 2, 185] = Q - 1 + rise
            c, secrets = kem_v1_encaps((seeds, b_rx), bits, P768)
            assert kem_v1_decaps(s, zs, pks, c, P768) == secrets

    def test_encaps_encrypts_under_the_w10_projection(self, monkeypatch):
        # the key every coefficient is encrypted under is 4 * (b >> 2) + 2,
        # the received word with its w2 bits read as 2, as decapsulation
        # reads a ciphertext word: q - 1 and the words past q it can arrive
        # as all project to 4 * 832 + 2 = q + 1
        from wkyber import protocol
        keys = []

        def recording(pks, bits, coins, params):
            keys.append(pks[1].copy())
            return wk_encrypt(pks, bits, coins, params)

        monkeypatch.setattr(protocol, "wk_encrypt", recording)
        (seeds, b), _, _ = kem_keys([b"wrap4"])
        b_rx = b.copy()
        b_rx[0, 2, 185:189] = [Q - 1, Q, Q + 1, Q + 2]
        kem_v1_encaps((seeds, b_rx), random_bits([stream(b"m8", 32)]), P768)
        assert np.array_equal(keys[0], b_rx - (b_rx & 3) + 2)
        assert keys[0][0, 2, 185:189].tolist() == [4 * 832 + 2] * 4

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

    @pytest.mark.parametrize("word", [-1, 1 << 12, 1 << 31])
    def test_decaps_rejects_words_past_12_bits(self, monkeypatch, word):
        # received words are 12-bit; another value is refused before any
        # decryption or re-encryption runs
        from wkyber import protocol
        pks, s, zs, c, _ = kem_pair(b"range", b"m9")
        calls = []
        monkeypatch.setattr(protocol, "wk_decrypt",
                            lambda *args: calls.append(args))
        c[0, 1, 7] = word
        with pytest.raises(ValueError, match="4096"):
            kem_v1_decaps(s, zs, pks, c, P768)
        assert not calls

    def test_decaps_checks_session_counts_before_any_work(self, monkeypatch):
        # one z for two sessions is refused before decryption runs, not by
        # the final zip once decryption and re-encryption are done
        from wkyber import protocol
        pks, s, zs = kem_keys([b"k1", b"k2"])
        c, _ = kem_v1_encaps(pks, random_bits([stream(b"m1", 32),
                                               stream(b"m2", 32)]), P768)
        calls = []
        monkeypatch.setattr(protocol, "wk_decrypt",
                            lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="differ in count"):
            kem_v1_decaps(s, zs[:1], pks, c, P768)
        assert not calls

    def test_decaps_checks_key_count_before_any_work(self, monkeypatch):
        # two keys for one session are refused with the other counts, not
        # by the re-encryption's zip once decryption is done
        from wkyber import protocol
        pks, s, zs, c, _ = kem_pair(b"count", b"m9")
        (seeds2, b2), _, _ = kem_keys([b"k1", b"k2"])
        calls = []
        monkeypatch.setattr(protocol, "wk_decrypt",
                            lambda *args: calls.append(args))
        for keys in ((seeds2, pks[1]), (pks[0], b2)):
            with pytest.raises(ValueError, match="differ in count"):
                kem_v1_decaps(s, zs, keys, c, P768)
        assert not calls

    def test_encaps_checks_session_counts_before_any_work(self, monkeypatch):
        # two keys with one message, or one seed with two b rows, are
        # refused before any key is hashed, not by zip after the key hashes
        from wkyber import protocol
        (seeds, b), _, _ = kem_keys([b"k1", b"k2"])
        one, two = (random_bits([stream(m, 32) for m in labels])
                    for labels in ([b"m1"], [b"m1", b"m2"]))

        def no_squeeze(*args):
            raise AssertionError("hashed before the counts were checked")

        monkeypatch.setattr(protocol, "squeeze", no_squeeze)
        for keys, bits in (((seeds, b), one), ((seeds[:1], b), two)):
            with pytest.raises(ValueError, match="differ in count"):
                kem_v1_encaps(keys, bits, P768)

    @pytest.mark.parametrize("bad", ["bool", "past 12 bits"])
    def test_encaps_checks_key_words(self, bad):
        # a bool key would encapsulate to the all-2 projection, and a word
        # past 12 bits would reach pack12; both are refused as key words
        (seeds, b), _, _ = kem_keys([b"words"])
        b = b.astype(bool) if bad == "bool" else b + 4096
        bits = random_bits([stream(b"m9", 32)])
        with pytest.raises(ValueError, match="key words"):
            kem_v1_encaps((seeds, b), bits, P768)


# every entry point between the channel and the KEM, given a float where
# its integer array belongs: check_range refuses it rather than truncate
FLOAT_INPUTS = {
    "compress": lambda kem, x: compress(x, 1),
    "decompress": lambda kem, x: decompress(x, 1),
    "pack12": lambda kem, x: pack12(x),
    "send_coeffs": lambda kem, x: send_coeffs(x, V2_PLANS[1],
                                              [NoiseSource(0)]),
    "kem_v1_encaps": lambda kem, x: kem_v1_encaps(
        (kem[0][0], x), np.zeros((1, N), dtype=np.int64), P768),
    "modulate_words": lambda kem, x: modulate_words(x),
    "wk_decrypt": lambda kem, x: wk_decrypt(kem[1], kem[3] + 0.5),
    "kem_v1_decaps": lambda kem, x: kem_v1_decaps(kem[1], kem[2], kem[0],
                                                  kem[3] + 0.5, P768),
}


@pytest.mark.parametrize("entry", FLOAT_INPUTS)
def test_float_input_raises(entry):
    # at kem_v1_decaps, c + 0.5 truncated back to c would yield the honest
    # secret for a ciphertext that was never sent
    with pytest.raises(ValueError, match="must be integers"):
        FLOAT_INPUTS[entry](kem_pair(b"float", b"m9"),
                            np.full((1, 2), 1.5))


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


def q_minus_one_pair():
    """kem_pair whose ciphertext holds q - 1 at (0, 0, 23): its message
    label was searched for that word, which a rising w2 takes past q."""
    return kem_pair(b"k", b"m7340")


class TestKemCheck:
    """The check accepts exactly the ciphertexts with the sender's w10
    words, and no choice of w2 bits reaches decryption.  Tampered
    ciphertexts are received 12-bit words, never reduced mod q."""

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
        tampered[:, :-1] = (u & ~3) + w2     # w10 kept
        assert kem_v1_decaps(s, zs, keys, tampered, P768) == secrets

    @given(rewrites=st.lists(
        st.tuples(st.one_of(st.just((0, 23)),
                            st.tuples(st.integers(0, P768.k),
                                      st.integers(0, N - 1))),
                  st.integers(0, 3)), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_any_w2_rewrite_keeps_the_key(self, rewrites):
        pks, s, zs, c, secrets = q_minus_one_pair()
        assert c[0, 0, 23] == Q - 1        # a rising w2 takes it past q
        tampered = c.copy()
        for (row, col), w2 in rewrites:
            tampered[0, row, col] = (c[0, row, col] & ~3) + w2
        assert kem_v1_decaps(s, zs, pks, tampered, P768) == secrets

    def test_sent_q_minus_one_keeps_its_w10(self):
        # q - 1 = 4 * 832 arrives as 3329..3331 when its w2 rises: accepted;
        # the residues 0..2 of those words carry w10 = 0: rejected
        pks, s, zs, c, secrets = q_minus_one_pair()
        for word, accepted in [(Q, True), (Q + 1, True), (Q + 2, True),
                               (0, False), (1, False), (2, False)]:
            received = c.copy()
            received[0, 0, 23] = word
            out = kem_v1_decaps(s, zs, pks, received, P768)
            assert (out == secrets) == accepted, word

    @given(edits=st.lists(
        st.tuples(st.one_of(st.just((0, 23)),
                            st.tuples(st.integers(0, P768.k),
                                      st.integers(0, N - 1))),
                  st.booleans(),
                  st.one_of(st.integers(0, (1 << 12) - 1),
                            st.sampled_from([0, 1, 2, 3, Q - 1, Q, Q + 2,
                                             Q + 3, (1 << 12) - 1]))),
        min_size=1, max_size=6))
    @example(edits=[((0, 23), False, 1)])   # q - 1 received as 1
    @settings(max_examples=80, deadline=None)
    def test_accepts_exactly_the_w10_words(self, edits):
        # each edit writes any 12-bit word, or only the w2 bits of c's word;
        # decapsulation returns the key iff every received word has c's
        # w10, and the implicit rejection of the received words otherwise
        pks, s, zs, c, secrets = q_minus_one_pair()
        received = c.copy()
        for at, w2_only, word in edits:
            received[(0, *at)] = ((c[(0, *at)] & ~3) + (word & 3) if w2_only
                                  else word)
        rejection = squeeze(zs[0] + squeeze(pack12(received[0]), b"ct", 32),
                            b"rej", 32)
        same_w10 = np.array_equal(received >> 2, c >> 2)
        assert kem_v1_decaps(s, zs, pks, received, P768) == (
            secrets if same_w10 else [rejection])

    @given(at=st.one_of(st.just((0, 23)),
                        st.tuples(st.integers(0, P768.k),
                                  st.integers(0, N - 1))),
           value=st.one_of(st.integers(0, (1 << 12) - 1),
                           st.sampled_from([0, 2, 3, Q - 4, Q - 1, Q + 3])))
    @settings(max_examples=60, deadline=None)
    def test_any_w10_change_rejects(self, at, value):
        pks, s, zs, c, _ = q_minus_one_pair()
        sent = int(c[(0, *at)])
        assume(value >> 2 != sent >> 2)
        c[(0, *at)] = value
        rejection = squeeze(zs[0] + squeeze(pack12(c[0]), b"ct", 32), b"rej",
                            32)
        assert kem_v1_decaps(s, zs, pks, c, P768) == [rejection]


class TestSessions:
    def test_transcript_deterministic(self, sessions_with_offsets):
        args = sessions_with_offsets, "v1", P768, NOMINAL_PLANS, [5]
        assert session_columns(*args) == session_columns(*args)

    @pytest.mark.parametrize("sessions", [0, 1, SESSION_BATCH + 1])
    def test_record_shapes(self, sessions):
        seeds = list(range(900, 900 + sessions))
        rec = run_sessions("v1", P768, NOMINAL_PLANS, seeds)
        assert (len(rec.outcome) == len(rec.bch_failures_pk)
                == len(rec.bch_failures_ct) == len(seeds))
        assert rec.outcome.dtype == bool
        assert rec.bch_failures_pk.dtype == rec.bch_failures_ct.dtype == np.int64

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

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed -1 is negative"):
            run_sessions("v1", P768, NOMINAL_PLANS, [3, -1])

    def test_plans_and_warnings_refuse_unknown_version(self):
        # "v3" would otherwise get v2's plans and v1's warnings
        with pytest.raises(ValueError, match="'v1' or 'v2'"):
            session_plans("v3", 10.0, -10.0)
        with pytest.raises(ValueError, match="'v1' or 'v2'"):
            snr_warnings("v3", V2_PLANS)

    def test_offsets_collection(self, sessions_with_offsets):
        _, offsets = sessions_with_offsets("v1", P768, NOMINAL_PLANS, [7])
        assert offsets.shape == (1, (P768.k + 1) * N)
        assert np.abs(offsets).max() <= 3

    def test_numpy_integer_seeds_match_python_ints(self, sessions_with_offsets):
        args = sessions_with_offsets, "v1", P768, NOMINAL_PLANS
        assert (session_columns(*args, np.arange(3))
                == session_columns(*args, [0, 1, 2]))

    def test_rejects_float_seed(self):
        with pytest.raises(TypeError):
            run_sessions("v1", P768, NOMINAL_PLANS, [1.0])

    def test_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            run_sessions("v3", P768, NOMINAL_PLANS, [0])

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_all_parameter_sets(self, params):
        assert run_sessions("v1", params, NOMINAL_PLANS, [8]).outcome.all()
        assert run_sessions("v2", params, V2_PLANS, [8]).outcome.all()


def session_columns(run_with_offsets, *args):
    """The per-session arrays and ciphertext offsets of run_with_offsets
    (the sessions_with_offsets fixture) on args, as lists, session i at
    index i."""
    rec, offsets = run_with_offsets(*args)
    return [rec.outcome.tolist(), rec.bch_failures_pk.tolist(),
            rec.bch_failures_ct.tolist(), offsets.tolist()]


class TestBatches:
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("snr_db", [0.0, 3.0])
    @given(first=st.integers(0, 2 ** 40),
           cuts=st.lists(st.integers(1, 6), min_size=1, max_size=4))
    @settings(max_examples=3, deadline=None)
    def test_any_split_gives_the_same_transcripts(self, sessions_with_offsets,
                                                  version, snr_db, params,
                                                  first, cuts):
        # at 0 and 3 dB seed blocks and b fail to decode and sessions
        # mismatch; each session's entries must depend on its seed alone
        plans = session_plans(version, snr_db, -10.0)
        seeds = [first + i for i in range(sum(cuts))]
        whole = session_columns(sessions_with_offsets, version, params, plans,
                                seeds)
        parts, at = [], 0
        for size in cuts:
            parts.append(session_columns(sessions_with_offsets, version,
                                         params, plans, seeds[at:at + size]))
            at += size
        assert whole == [sum(column, []) for column in zip(*parts)]
        if snr_db == 0.0:
            assert any(whole[1])   # key-leg failures


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
        # + 4 changes w10 = c >> 2, and the word stays below 4096
        received[bad, row, col] += 4
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
    def test_v1_noise_deviation_under_the_centred_projection(self):
        # 200 V1 keys at k = 3, each with one encapsulation, the protected
        # words noiseless: decryption reads each word as 4 * w10 + 2, so the
        # noise is (e + 2 - (b & 3))^T s' + r_v - s^T r_u.  The centred key
        # term leaves a deviation near 55.5; b & ~3 (e - (b & 3)) gave 67.7
        sessions = 200
        pks, s, _ = kem_keys([b"dev-%d" % i for i in range(sessions)])
        bits = random_bits([stream(b"dev-m%d" % i, 32)
                            for i in range(sessions)])
        c, _ = kem_v1_encaps(pks, bits, P768)
        read = (4 * (c >> 2) + 2) % Q
        su = mul_sum(ntt(s)[:, None], read[:, :-1])[:, 0]
        noise = centered(read[:, -1] - su - decompress(bits, 1))
        assert noise.std() < 62, noise.std()

    def test_v2_noise_matches_convolution_engine(self, noise_law):
        """End-to-end per-coefficient decryption noise vs the analytic law."""
        from wkyber.reliability import wkyber_v2_model

        observed = []
        for i in range(60):
            # the key stream read as keygen noise, message bits, coins
            nk = keygen_bytes(P768, with_error=False)
            kg = stream(b"ks" + bytes([i]), nk + 64)
            (seeds, b), s = keygen([SEED], [kg[:nk]], P768, with_error=False)
            seeds_rx, b_rx, _ = send_key(seeds, b, ChannelPlan(10, -10),
                                         [NoiseSource(7000 + i)])
            bits = random_bits([kg[nk:nk + 32]])
            (c,) = wk_encrypt((seeds_rx, b_rx), bits, [kg[nk + 32:]], P768)
            (c_rx,), _ = send_coeffs(c[None], ChannelPlan(10, -10),
                                     [NoiseSource(8000 + i)])
            c_rx %= Q
            s_u = mul_sum(ntt(s[0])[None], c_rx[:-1])[0]
            observed.append(centered(c_rx[-1] - s_u - decompress(bits[0], 1)))
        observed = np.concatenate(observed)

        dist = noise_law(P768, wkyber_v2_model(P768, coeff_error_dist(-10.0)))
        support = np.array(list(dist.support))
        cdf = np.cumsum(dist.masses)
        # KS distance between the empirical sample and the analytic CDF
        xs = np.sort(observed)
        emp = np.arange(1, len(xs) + 1) / len(xs)
        idx = np.searchsorted(support, xs, side="right") - 1
        ks = float(np.abs(emp - cdf[idx]).max())
        assert ks < 0.02, ks
