import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkyber.core import (cbd_vectors, centered, check_bytes, compress,
                         decompress, gen_matrices, mul_sum, ntt, pack12,
                         squeeze, unpack12)
from wkyber.params import KYBER768, N, Q, PARAM_SETS
from wkyber.pke import (decrypt, encrypt, keygen, keygen_bytes, random_bits,
                        wk_decrypt, wk_encrypt)

SEED = bytes(32)
NK = keygen_bytes(KYBER768)


def stream(label, n):
    """The first n bytes of the test stream under label."""
    return squeeze(b"\xab" * 32, label, n)


def key_pair(label, params=KYBER768):
    """One baseline key pair, a batch of one, from the keygen noise at the
    head of the stream under label: ((seeds, b), s)."""
    return keygen([SEED], [stream(label, keygen_bytes(params))], params)


class TestMessage:
    def test_roundtrip_bytes(self):
        # the 32 bytes of each stream, little-endian bit order
        (bits,) = random_bits([stream(b"m", 32)])
        assert bits.shape == (N,) and bits.dtype == np.int64
        packed = np.packbits(bits.astype(np.uint8), bitorder="little")
        assert packed.tobytes() == stream(b"m", 32)

    def test_rejects_non_binary(self):
        pks, _ = key_pair(b"kgm")
        with pytest.raises(ValueError):
            wk_encrypt(pks, np.full((1, N), 2), [bytes(32)], KYBER768)

    def test_mhat_values(self):
        mhat = decompress(random_bits([stream(b"m2", 32)]), 1)
        assert set(np.unique(mhat)) <= {0, 1665}


class TestKeygen:
    def test_zero_noise_gives_zero_b(self):
        # forced s = 0, e = 0 via all-zero noise bytes
        (seeds, b), s = keygen([SEED], [bytes(NK)], KYBER768)
        assert seeds == [SEED] and b.shape == s.shape == (1, 3, N)
        assert not b.any() and not s.any()

    def test_deterministic(self):
        (seeds1, b1), s1 = key_pair(b"kg")
        (seeds2, b2), s2 = key_pair(b"kg")
        assert seeds1 == seeds2
        assert np.array_equal(b1, b2) and np.array_equal(s1, s2)

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_b_minus_as_in_cbd_range(self, params):
        (seeds, b), s = key_pair(b"kg3", params)
        a_s = mul_sum(gen_matrices(seeds, params), s)
        e = (b - a_s) % Q
        assert ((e <= params.eta1) | (e >= Q - params.eta1)).all()


class TestEncryptDecrypt:
    def test_forced_zero_noise_gives_zero_ciphertext(self, monkeypatch):
        from wkyber import pke
        monkeypatch.setattr(pke, "noise_vectors",
                            lambda seeds, label, eta, k:
                            np.zeros((len(seeds), k, N), dtype=np.int64))
        pks, _ = key_pair(b"kgz")
        u_c, v_c = encrypt(pks, np.zeros((1, N), dtype=np.int64),
                           [bytes(32)], KYBER768)
        assert u_c.shape == (1, 3, N) and v_c.shape == (1, N)
        assert not u_c.any() and not v_c.any()

    def test_noise_free_construction_decrypts_exactly(self):
        # no error terms and no compression loss on v=mhat: decrypt is exact
        s = np.zeros((1, 3, N), dtype=np.int64)
        bits = random_bits([stream(b"nf", 32)])
        u_c = np.zeros((1, 3, N), dtype=np.int64)
        v_c = bits * ((1 << KYBER768.dv) // 2)
        assert np.array_equal(decrypt(s, u_c, v_c, KYBER768), bits)

    def test_deterministic(self):
        pks, _ = key_pair(b"kg4")
        bits = random_bits([stream(b"m4", 32)])
        first = encrypt(pks, bits, [b"c" * 32], KYBER768)
        second = encrypt(pks, bits, [b"c" * 32], KYBER768)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_roundtrips(self, params):
        # 30 keys read in turn from one stream, 30 (bits, coins) from another
        nk = keygen_bytes(params)
        kg = stream(b"kg5" + params.name.encode(), 30 * nk)
        ms = stream(b"m5", 30 * 64)
        for i in range(30):
            pks, s = keygen([SEED], [kg[i * nk:(i + 1) * nk]], params)
            bits = random_bits([ms[64 * i:64 * i + 32]])
            u_c, v_c = encrypt(pks, bits, [ms[64 * i + 32:64 * (i + 1)]],
                               params)
            assert np.array_equal(decrypt(s, u_c, v_c, params), bits)

    def test_noise_stays_below_bound(self):
        pks, (s,) = key_pair(b"kg6")
        ms = stream(b"m6", 10 * 64)
        for i in range(10):
            bits = random_bits([ms[64 * i:64 * i + 32]])
            (u_c,), (v_c,) = encrypt(pks, bits, [ms[64 * i + 32:64 * (i + 1)]],
                                     KYBER768)
            # v - s^T u - mhat on the decompressed ciphertext
            u = decompress(u_c, KYBER768.du)
            v = decompress(v_c, KYBER768.dv)
            s_u = mul_sum(ntt(s)[None], u)[0]
            noise = centered(v - s_u - decompress(bits[0], 1))
            assert np.abs(noise).max() < 832

    @pytest.mark.parametrize("bad", ["b + 0.5", "b + 12288", "c + 8192", "-c"])
    def test_rejects_words_never_received(self, bad):
        # b and the ciphertext arrive as 12-bit words 4 * w10 + w2; a float
        # or a word past 4096 or below 0 was never sent, even where it
        # reduces mod q to an honest one
        (seeds, b), s = key_pair(b"kg7")
        bits, coins = random_bits([stream(b"m7", 32)]), [stream(b"c7", 32)]
        c = wk_encrypt((seeds, b), bits, coins, KYBER768)
        assert np.array_equal(wk_decrypt(s, c), bits)
        words = {"b + 0.5": b + 0.5, "b + 12288": b + 12288,
                 "c + 8192": c + 8192, "-c": -c}[bad]
        with pytest.raises(ValueError, match="words"):
            if bad.startswith("b"):
                wk_encrypt((seeds, words), bits, coins, KYBER768)
            else:
                wk_decrypt(s, words)

    def test_decision_boundary_single_coefficient(self):
        # direct per-coefficient sweep: bit survives iff the added noise stays
        # inside the decision region of compress(., 1); noise of magnitude
        # < 832 = round(q/4) is always safe, 832 already flips an encoded 1
        for delta in range(-840, 841):
            bit0_ok = compress(delta % Q, 1) == 0
            assert bit0_ok == (abs(delta) <= 832)
            bit1_ok = compress((1665 + delta) % Q, 1) == 1
            assert bit1_ok == (-832 <= delta <= 831)
            if abs(delta) < 832:
                assert bit0_ok and bit1_ok


class TestSessionCounts:
    # per-session inputs of different counts raise; broadcasting one coin or
    # one key stream over two sessions would share a secret between them
    def test_keygen_rejects_one_seed_for_two_streams(self):
        with pytest.raises(ValueError, match="differ in count"):
            keygen([SEED], [stream(b"c1", NK), stream(b"c2", NK)], KYBER768)

    @pytest.mark.parametrize("encrypt_fn", [wk_encrypt, encrypt])
    def test_encryption_rejects_one_coin_for_two_keys(self, encrypt_fn):
        pks, _ = keygen([SEED, b"\x01" * 32],
                        [stream(b"c1", NK), stream(b"c2", NK)], KYBER768)
        bits = random_bits([stream(b"m1", 32), stream(b"m2", 32)])
        with pytest.raises(ValueError, match="differ in count"):
            encrypt_fn(pks, bits, [bytes(32)], KYBER768)


class TestSessionBytes:
    # each session's randomness is its own byte string of one exact length;
    # a short or long one raises, even when the batch's joined length fits
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    @pytest.mark.parametrize("with_error", [True, False])
    def test_keygen_bytes_is_what_keygen_reads(self, params, with_error):
        n = keygen_bytes(params, with_error)
        assert n == 64 * params.eta1 * params.k * (2 if with_error else 1)
        noise = stream(b"kb", n)
        (seeds, b), s = keygen([SEED], [noise], params, with_error)
        s_e = cbd_vectors(noise, params.eta1, params.k)  # s, then e
        assert np.array_equal(s, s_e[:1])
        e = (b - mul_sum(gen_matrices(seeds, params), s)) % Q
        assert np.array_equal(e, s_e[1:] if with_error else 0 * s)

    @pytest.mark.parametrize("with_error", [True, False])
    @pytest.mark.parametrize("lengths", [(-1, 0), (0, 1), (1, -1), (-1, 1)],
                             ids=["short", "long", "long-short",
                                  "short-long"])
    def test_keygen_rejects_wrong_lengths(self, with_error, lengths):
        n = keygen_bytes(KYBER768, with_error)
        noise = [stream(b"w%d" % i, n + d) for i, d in enumerate(lengths)]
        with pytest.raises(ValueError, match="needs"):
            keygen([SEED, SEED], noise, KYBER768, with_error)

    @pytest.mark.parametrize("lengths", [(31, 32), (32, 33), (33, 31),
                                         (31, 33), (0, 64)])
    def test_random_bits_rejects_wrong_lengths(self, lengths):
        with pytest.raises(ValueError, match="needs 32 bytes"):
            random_bits([bytes(n) for n in lengths])


def unpack_ring(data, rows):
    """The byte format's oracle: pack12 bytes to (rows, 256) coefficients,
    rejecting a wrong length or any coefficient >= q, so every accepted
    encoding is canonical.  Secrets decode with rows = k, ciphertexts with
    k + 1, a public key's b after its 32 seed bytes (check_bytes) with k."""
    if len(data) != 3 * rows * N // 2:
        raise ValueError("length mismatch")
    coeffs = unpack12(data)
    if coeffs.max(initial=0) >= Q:
        raise ValueError("non-canonical coefficient >= q")
    return coeffs.reshape(rows, N)


class TestSerialization:
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_pk_sk_roundtrip(self, params):
        ((seed,), (b,)), (s,) = key_pair(b"ser", params)
        pk = seed + pack12(b)
        assert check_bytes([pk[:32]], 32) == [seed]
        assert np.array_equal(unpack_ring(pk[32:], params.k), b)
        assert np.array_equal(unpack_ring(pack12(s), params.k), s)

    def test_pk_length(self):
        ((seed,), (b,)), _ = key_pair(b"len")
        assert len(seed + pack12(b)) == 32 + 3 * 384  # seed + 12-bit packed b


# wire decoders accept exactly the canonical encodings: every 12-bit
# coefficient below q, so that decode then encode reproduces the input.
# form -> (rows, keyed): a secret s (or a bare b) is k rows, a wireless
# ciphertext k + 1 rows, a public key 32 seed bytes then b's k rows
P512 = PARAM_SETS[512]
FORMS = {"s": (P512.k, False), "ct": (KYBER768.k + 1, False),
         "pk": (P512.k, True)}
coeff_seeds = st.integers(0, 2 ** 32 - 1)


def random_coeffs(seed, rows):
    return np.random.default_rng(seed).integers(0, Q, (rows, N))


def encode(form, seed, coeffs):
    return (seed if FORMS[form][1] else b"") + pack12(coeffs)


def decode(form, data):
    """(seed, b"" for an unkeyed form, and the (rows, 256) coefficients)."""
    rows, keyed = FORMS[form]
    if keyed:
        return check_bytes([data[:32]], 32)[0], unpack_ring(data[32:], rows)
    return b"", unpack_ring(data, rows)


@pytest.mark.parametrize("form", FORMS)
class TestCanonicalDecoding:
    @given(coeff_seeds)
    @settings(max_examples=25)
    def test_roundtrip(self, form, seed):
        coeffs = random_coeffs(seed, FORMS[form][0])
        key_seed = bytes([seed & 0xFF]) * 32 if FORMS[form][1] else b""
        got_seed, got = decode(form, encode(form, key_seed, coeffs))
        assert got_seed == key_seed and np.array_equal(got, coeffs)

    # (position, value >= q) overwrites; an empty list keeps the encoding
    # canonical
    @given(coeff_seeds, st.lists(st.tuples(st.integers(0, 4 * N - 1),
                                           st.integers(Q, 4095)),
                                 max_size=3))
    @settings(max_examples=50)
    def test_rejects_coefficients_at_or_above_q(self, form, seed, bad):
        coeffs = random_coeffs(seed, FORMS[form][0]).ravel()
        for pos, value in bad:
            coeffs[pos % len(coeffs)] = value
        data = encode(form, SEED, coeffs)
        if bad:
            with pytest.raises(ValueError):
                decode(form, data)
        else:
            assert encode(form, *decode(form, data)) == data

    def test_packed_4095_rejected(self, form):
        coeffs = np.zeros(FORMS[form][0] * N, dtype=np.int64)
        coeffs[5] = 4095
        with pytest.raises(ValueError):
            decode(form, encode(form, SEED, coeffs))

    def test_rejects_wrong_length(self, form):
        data = encode(form, SEED, np.zeros((FORMS[form][0], N), dtype=np.int64))
        decode(form, data)
        for wrong in (b"", data[:31], data[:-3], data[:-1], data + b"\0",
                      data + bytes(3)):
            with pytest.raises(ValueError):
                decode(form, wrong)

    @given(st.data())
    @settings(max_examples=50)
    def test_fuzz(self, form, data):
        rows, keyed = FORMS[form]
        size = 32 * keyed + 384 * rows
        raw = data.draw(st.binary(min_size=size - 3, max_size=size + 3))
        try:
            decoded = decode(form, raw)
        except ValueError:
            return
        assert encode(form, *decoded) == raw
