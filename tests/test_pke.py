import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkyber.core import (XofStream, centered, compress, decompress,
                         gen_matrices, inner_product, matvec_mul, pack12)
from wkyber.params import KYBER768, N, Q, PARAM_SETS
from wkyber.pke import (PublicKey, SecretKey, decrypt, encrypt, keygen,
                        random_bits, wk_encrypt)

SEED = bytes(32)


def stream(label):
    return XofStream(b"\xab" * 32, label)


def key_pair(rng, params=KYBER768, seed_a=SEED):
    """One baseline key pair, as (public key, (k, 256) secret)."""
    (pk,), s = keygen([seed_a], [rng], params)
    return pk, s[0]


class TestMessage:
    def test_roundtrip_bytes(self):
        # the 32 bytes of each stream, little-endian bit order
        (bits,) = random_bits([stream(b"m")])
        assert bits.shape == (N,) and bits.dtype == np.int64
        packed = np.packbits(bits.astype(np.uint8), bitorder="little")
        assert packed.tobytes() == stream(b"m").read(32)

    def test_rejects_non_binary(self):
        pk, _ = key_pair(stream(b"kgm"))
        with pytest.raises(ValueError):
            wk_encrypt([pk], np.full((1, N), 2), [bytes(32)], KYBER768)

    def test_mhat_values(self):
        mhat = decompress(random_bits([stream(b"m2")]), 1)
        assert set(np.unique(mhat)) <= {0, 1665}


class TestKeygen:
    def test_zero_noise_gives_zero_b(self):
        # forced s = 0, e = 0 via an all-zero sampling stream
        pk, s = key_pair(io.BytesIO(bytes(10_000)))
        assert pk.b.shape == s.shape == (3, N)
        assert not pk.b.any() and not s.any()

    def test_deterministic(self):
        pk1, s1 = key_pair(stream(b"kg"))
        pk2, s2 = key_pair(stream(b"kg"))
        assert pk1 == pk2 and np.array_equal(s1, s2)

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_b_minus_as_in_cbd_range(self, params):
        pk, s = key_pair(stream(b"kg3"), params)
        a_s = matvec_mul(gen_matrices([pk.seed], params)[0], s)
        e = (pk.b - a_s) % Q
        assert ((e <= params.eta1) | (e >= Q - params.eta1)).all()


class TestEncryptDecrypt:
    def test_forced_zero_noise_gives_zero_ciphertext(self, monkeypatch):
        from wkyber import pke
        monkeypatch.setattr(pke, "noise_vectors",
                            lambda seeds, label, eta, k:
                            np.zeros((len(seeds), k, N), dtype=np.int64))
        pk, _ = key_pair(stream(b"kgz"))
        u_c, v_c = encrypt([pk], np.zeros((1, N), dtype=np.int64),
                           [bytes(32)], KYBER768)
        assert u_c.shape == (1, 3, N) and v_c.shape == (1, N)
        assert not u_c.any() and not v_c.any()

    def test_noise_free_construction_decrypts_exactly(self):
        # no error terms and no compression loss on v=mhat: decrypt is exact
        s = np.zeros((1, 3, N), dtype=np.int64)
        bits = random_bits([stream(b"nf")])
        u_c = np.zeros((1, 3, N), dtype=np.int64)
        v_c = bits * ((1 << KYBER768.dv) // 2)
        assert np.array_equal(decrypt(s, u_c, v_c, KYBER768), bits)

    def test_deterministic(self):
        pk, _ = key_pair(stream(b"kg4"))
        bits = random_bits([stream(b"m4")])
        first = encrypt([pk], bits, [b"c" * 32], KYBER768)
        second = encrypt([pk], bits, [b"c" * 32], KYBER768)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_roundtrips(self, params):
        kg = stream(b"kg5" + params.name.encode())
        ms = stream(b"m5")
        for i in range(30):
            (pk,), s = keygen([SEED], [kg], params)
            bits = random_bits([ms])
            u_c, v_c = encrypt([pk], bits, [ms.read(32)], params)
            assert np.array_equal(decrypt(s, u_c, v_c, params), bits)

    def test_noise_stays_below_bound(self):
        pk, s = key_pair(stream(b"kg6"))
        ms = stream(b"m6")
        for _ in range(10):
            bits = random_bits([ms])
            (u_c,), (v_c,) = encrypt([pk], bits, [ms.read(32)], KYBER768)
            # v - s^T u - mhat on the decompressed ciphertext
            u = decompress(u_c, KYBER768.du)
            v = decompress(v_c, KYBER768.dv)
            noise = centered(v - inner_product(s, u) - decompress(bits[0], 1))
            assert np.abs(noise).max() < 832

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


class TestSerialization:
    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_pk_sk_roundtrip(self, params):
        pk, s = key_pair(stream(b"ser"), params)
        sk = SecretKey(s)
        assert PublicKey.from_bytes(pk.to_bytes(), params) == pk
        assert SecretKey.from_bytes(sk.to_bytes(), params) == sk

    def test_pk_length(self):
        pk, _ = key_pair(stream(b"len"))
        assert len(pk.to_bytes()) == 32 + 3 * 384  # seed + 12-bit packed b


# wire decoders accept exactly the canonical encodings: every 12-bit
# coefficient below q, so that decode then encode reproduces the input
P512 = PARAM_SETS[512]
PK_BYTES = 32 + P512.k * 384
coeff_seeds = st.integers(0, 2 ** 32 - 1)
# (position, value >= q) overwrites; empty lists keep the encoding canonical
overwrites = st.lists(st.tuples(st.integers(0, P512.k * N - 1),
                                st.integers(Q, 4095)), max_size=3)


def random_coeffs(seed, count):
    return np.random.default_rng(seed).integers(0, Q, count)


class TestCanonicalDecoding:
    @given(coeff_seeds)
    @settings(max_examples=25)
    def test_pk_roundtrip(self, seed):
        pk = PublicKey(bytes([seed & 0xFF]) * 32,
                       random_coeffs(seed, P512.k * N).reshape(P512.k, N))
        assert PublicKey.from_bytes(pk.to_bytes(), P512) == pk

    @given(coeff_seeds)
    @settings(max_examples=25)
    def test_sk_roundtrip(self, seed):
        sk = SecretKey(random_coeffs(seed, P512.k * N).reshape(P512.k, N))
        assert SecretKey.from_bytes(sk.to_bytes(), P512) == sk

    @given(coeff_seeds, overwrites)
    @settings(max_examples=50)
    def test_rejects_coefficients_at_or_above_q(self, seed, bad):
        coeffs = random_coeffs(seed, P512.k * N)
        for pos, value in bad:
            coeffs[pos] = value
        packed = pack12(coeffs)
        if bad:
            with pytest.raises(ValueError):
                PublicKey.from_bytes(SEED + packed, P512)
            with pytest.raises(ValueError):
                SecretKey.from_bytes(packed, P512)
        else:
            assert PublicKey.from_bytes(SEED + packed, P512).to_bytes() == \
                SEED + packed
            assert SecretKey.from_bytes(packed, P512).to_bytes() == packed

    def test_packed_4095_rejected(self):
        coeffs = np.zeros(P512.k * N, dtype=np.int64)
        coeffs[5] = 4095
        with pytest.raises(ValueError):
            PublicKey.from_bytes(SEED + pack12(coeffs), P512)

    @given(st.binary(min_size=PK_BYTES - 3, max_size=PK_BYTES + 3))
    @settings(max_examples=50)
    def test_pk_fuzz(self, data):
        try:
            pk = PublicKey.from_bytes(data, P512)
        except ValueError:
            return
        assert pk.to_bytes() == data

    @given(st.binary(min_size=PK_BYTES - 35, max_size=PK_BYTES - 29))
    @settings(max_examples=50)
    def test_sk_fuzz(self, data):
        try:
            sk = SecretKey.from_bytes(data, P512)
        except ValueError:
            return
        assert sk.to_bytes() == data
