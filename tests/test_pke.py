import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkyber.core import (XofStream, centered, check_seed, compress,
                         decompress, gen_matrices, inner_product, matvec_mul,
                         pack12, unpack_ring)
from wkyber.params import KYBER768, N, Q, PARAM_SETS
from wkyber.pke import decrypt, encrypt, keygen, random_bits, wk_encrypt

SEED = bytes(32)


def stream(label):
    return XofStream(b"\xab" * 32, label)


def key_pair(rng, params=KYBER768):
    """One baseline key pair, a batch of one: ((seeds, b), s)."""
    return keygen([SEED], [rng], params)


class TestMessage:
    def test_roundtrip_bytes(self):
        # the 32 bytes of each stream, little-endian bit order
        (bits,) = random_bits([stream(b"m")])
        assert bits.shape == (N,) and bits.dtype == np.int64
        packed = np.packbits(bits.astype(np.uint8), bitorder="little")
        assert packed.tobytes() == stream(b"m").read(32)

    def test_rejects_non_binary(self):
        pks, _ = key_pair(stream(b"kgm"))
        with pytest.raises(ValueError):
            wk_encrypt(pks, np.full((1, N), 2), [bytes(32)], KYBER768)

    def test_mhat_values(self):
        mhat = decompress(random_bits([stream(b"m2")]), 1)
        assert set(np.unique(mhat)) <= {0, 1665}


class TestKeygen:
    def test_zero_noise_gives_zero_b(self):
        # forced s = 0, e = 0 via an all-zero sampling stream
        (seeds, b), s = key_pair(io.BytesIO(bytes(10_000)))
        assert seeds == [SEED] and b.shape == s.shape == (1, 3, N)
        assert not b.any() and not s.any()

    def test_deterministic(self):
        (seeds1, b1), s1 = key_pair(stream(b"kg"))
        (seeds2, b2), s2 = key_pair(stream(b"kg"))
        assert seeds1 == seeds2
        assert np.array_equal(b1, b2) and np.array_equal(s1, s2)

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_b_minus_as_in_cbd_range(self, params):
        (seeds, b), s = key_pair(stream(b"kg3"), params)
        a_s = matvec_mul(gen_matrices(seeds, params), s)
        e = (b - a_s) % Q
        assert ((e <= params.eta1) | (e >= Q - params.eta1)).all()


class TestEncryptDecrypt:
    def test_forced_zero_noise_gives_zero_ciphertext(self, monkeypatch):
        from wkyber import pke
        monkeypatch.setattr(pke, "noise_vectors",
                            lambda seeds, label, eta, k:
                            np.zeros((len(seeds), k, N), dtype=np.int64))
        pks, _ = key_pair(stream(b"kgz"))
        u_c, v_c = encrypt(pks, np.zeros((1, N), dtype=np.int64),
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
        pks, _ = key_pair(stream(b"kg4"))
        bits = random_bits([stream(b"m4")])
        first = encrypt(pks, bits, [b"c" * 32], KYBER768)
        second = encrypt(pks, bits, [b"c" * 32], KYBER768)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("params", PARAM_SETS.values(), ids=lambda p: p.name)
    def test_roundtrips(self, params):
        kg = stream(b"kg5" + params.name.encode())
        ms = stream(b"m5")
        for i in range(30):
            pks, s = keygen([SEED], [kg], params)
            bits = random_bits([ms])
            u_c, v_c = encrypt(pks, bits, [ms.read(32)], params)
            assert np.array_equal(decrypt(s, u_c, v_c, params), bits)

    def test_noise_stays_below_bound(self):
        pks, (s,) = key_pair(stream(b"kg6"))
        ms = stream(b"m6")
        for _ in range(10):
            bits = random_bits([ms])
            (u_c,), (v_c,) = encrypt(pks, bits, [ms.read(32)], KYBER768)
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
        ((seed,), (b,)), (s,) = key_pair(stream(b"ser"), params)
        pk = seed + pack12(b)
        assert check_seed(pk[:32]) == seed
        assert np.array_equal(unpack_ring(pk[32:], params.k), b)
        assert np.array_equal(unpack_ring(pack12(s), params.k), s)

    def test_pk_length(self):
        ((seed,), (b,)), _ = key_pair(stream(b"len"))
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
        return check_seed(data[:32]), unpack_ring(data[32:], rows)
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
