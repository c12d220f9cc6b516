import functools
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkyber.core import (GAMMAS, UNIFORM_READ, XofStream, _gen_matrix_cached,
                         cbd_vectors, centered, compress, decompress,
                         encrypt_products, gen_matrices, inner_product,
                         intt, matvec_mul, ntt, pack12, poly_mul,
                         poly_mul_schoolbook, squeeze, unpack12)
from wkyber.params import KYBER512, KYBER768, KYBER1024, N, Q


def rand_poly(rng, shape=()):
    return rng.integers(0, Q, (*shape, N))


def ntt_by_definition():
    """Pair i of the transform is f mod (x^2 - gamma_i): x^2j -> gamma_i^j,
    x^(2j+1) -> gamma_i^j x."""
    m = np.zeros((N, N), dtype=np.int64)
    for i, gamma in enumerate(GAMMAS):
        powers = [pow(int(gamma), j, Q) for j in range(N // 2)]
        m[2 * i, 0::2] = powers
        m[2 * i + 1, 1::2] = powers
    return m


NTT_MATRIX = ntt_by_definition()
seeds = st.integers(0, 2 ** 32 - 1)
# a ring element, a module vector and a module matrix for every rank
BATCH_SHAPES = [(), (2,), (3,), (4,), (2, 2), (3, 3), (4, 4)]
batch_shapes = st.sampled_from(BATCH_SHAPES)


class TestNtt:
    @given(batch_shapes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_row_by_row(self, lead, seed):
        x = rand_poly(np.random.default_rng(seed), lead)
        got = ntt(x)
        assert got.shape == x.shape
        for idx in np.ndindex(lead):
            assert np.array_equal(got[idx], ntt(x[idx]))
            assert np.array_equal(got[idx], NTT_MATRIX @ x[idx] % Q)

    @given(batch_shapes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_inverse_roundtrip(self, lead, seed):
        x = rand_poly(np.random.default_rng(seed), lead)
        assert np.array_equal(intt(ntt(x)), x)
        assert np.array_equal(ntt(intt(x)), x)

    def test_does_not_modify_input(self):
        x = rand_poly(np.random.default_rng(10), (3,))
        before = x.copy()
        ntt(x)
        intt(x)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("lead", BATCH_SHAPES)
    @pytest.mark.parametrize("fill", [0, Q - 1])
    def test_extreme_inputs(self, lead, fill):
        # all-(q-1) input gives every sum of the transform its largest value
        x = np.full((*lead, N), fill, dtype=np.int64)
        assert np.array_equal(ntt(x), x @ NTT_MATRIX.T % Q)
        assert np.array_equal(intt(ntt(x)), x)
        assert np.array_equal(ntt(intt(x)), x)

    @pytest.mark.parametrize("view", [
        lambda rng: rand_poly(rng, (3, 3)).swapaxes(0, 1),
        lambda rng: rng.integers(0, Q, (N, 3)).T,       # strided last axis
        lambda rng: rand_poly(rng, (4,))[:-1],           # WkCiphertext.u
    ])
    def test_views_equal_copies(self, view):
        x = view(np.random.default_rng(12))
        assert np.array_equal(ntt(x), ntt(x.copy()))
        assert np.array_equal(intt(x), intt(x.copy()))


class TestPolyMul:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(2)
        one = np.zeros(N, dtype=np.int64)
        one[0] = 1
        a = rand_poly(rng)
        assert np.array_equal(poly_mul(a, one), a)

    def test_negacyclic_wraparound(self):
        # x^(n-1) * x = x^n = -1
        hi = np.zeros(N, dtype=np.int64)
        hi[N - 1] = 1
        x = np.zeros(N, dtype=np.int64)
        x[1] = 1
        r = poly_mul(hi, x)
        assert r[0] == Q - 1
        assert (r[1:] == 0).all()

    def test_ntt_equals_schoolbook(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            assert np.array_equal(poly_mul(a, b), poly_mul_schoolbook(a, b))

    def test_closure(self):
        rng = np.random.default_rng(4)
        r = poly_mul(rand_poly(rng), rand_poly(rng))
        assert r.shape == (N,)
        assert r.min() >= 0 and r.max() < Q


def schoolbook_dot(row, s):
    """sum_j row[j] * s[j] with the schoolbook multiplier."""
    acc = np.zeros(N, dtype=np.int64)
    for r_j, s_j in zip(row, s):
        acc = (acc + poly_mul_schoolbook(r_j, s_j)) % Q
    return acc


def rand_matrix(rng, k):
    """A random (k, k, 256) matrix in both domains."""
    a = rand_poly(rng, (k, k))
    return a, ntt(a)


class TestMatVec:
    def test_identity_matrix(self):
        rng = np.random.default_rng(5)
        ident = np.zeros((3, 3, N), dtype=np.int64)
        ident[np.arange(3), np.arange(3), 0] = 1
        s = rand_poly(rng, (3,))
        assert np.array_equal(matvec_mul(ntt(ident), s), s)
        assert np.array_equal(encrypt_products(ntt(ident), s, s)[:-1], s)

    def test_zero_matrix(self):
        rng = np.random.default_rng(6)
        zero = np.zeros((2, 2, N), dtype=np.int64)
        s = rand_poly(rng, (2,))
        assert not matvec_mul(zero, s).any()

    @given(k=st.sampled_from([2, 3, 4]), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_entrywise_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        a, a_hat = rand_matrix(rng, k)
        s = rand_poly(rng, (k,))
        got = matvec_mul(a_hat, s)
        assert got.shape == (k, N)
        for i in range(k):
            assert np.array_equal(got[i], schoolbook_dot(a[i], s))

    @given(k=st.sampled_from([2, 3, 4]), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_encrypt_products(self, k, seed):
        # schoolbook A^T s and b^T s, one row each
        rng = np.random.default_rng(seed)
        a, a_hat = rand_matrix(rng, k)
        b, s = rand_poly(rng, (k,)), rand_poly(rng, (k,))
        got = encrypt_products(a_hat, b, s)
        assert got.shape == (k + 1, N)
        rows = [a[:, i] for i in range(k)] + [b]
        for i, row in enumerate(rows):
            assert np.array_equal(got[i], schoolbook_dot(row, s))

    @pytest.mark.parametrize("batch", [(1,), (3,), (2, 2)])
    def test_leading_axes_batched(self, batch):
        # every slice of a batched product is the product of its slices
        rng = np.random.default_rng(9)
        k = 3
        a_hat = ntt(rand_poly(rng, (*batch, k, k)))
        b, s = rand_poly(rng, (*batch, k)), rand_poly(rng, (*batch, k))
        mv = matvec_mul(a_hat, s)
        ip = inner_product(b, s)
        ep = encrypt_products(a_hat, b, s)
        assert mv.shape == (*batch, k, N) and ip.shape == (*batch, N)
        assert ep.shape == (*batch, k + 1, N)
        for idx in np.ndindex(*batch):
            assert np.array_equal(mv[idx], matvec_mul(a_hat[idx], s[idx]))
            assert np.array_equal(ep[idx],
                                  encrypt_products(a_hat[idx], b[idx], s[idx]))
            assert np.array_equal(ip[idx], schoolbook_dot(b[idx], s[idx]))

    @pytest.mark.parametrize("domain", ["ntt", "coefficients"])
    def test_extreme_inputs(self, domain):
        # all-(q-1) operands at k = 4, batched; in the NTT domain they give
        # every product and k-sum of the float64 multiply-accumulate its
        # largest value
        k = 4
        full = np.full((2, k, k, N), Q - 1, dtype=np.int64)
        a = intt(full) if domain == "ntt" else full
        b = s = a[:, 0]
        a_hat = ntt(a)
        mv, ip = matvec_mul(a_hat, s), inner_product(b, s)
        ep = encrypt_products(a_hat, b, s)
        for i in range(2):
            for r in range(k):
                assert np.array_equal(mv[i, r], schoolbook_dot(a[i, r], s[i]))
                assert np.array_equal(ep[i, r],
                                      schoolbook_dot(a[i, :, r], s[i]))
            assert np.array_equal(ip[i], schoolbook_dot(b[i], s[i]))
            assert np.array_equal(ep[i, k], ip[i])

    def test_rank_mismatch(self):
        _, a_hat = rand_matrix(np.random.default_rng(8), 3)
        v2, v3 = np.zeros((2, N), dtype=np.int64), np.zeros((3, N), dtype=np.int64)
        with pytest.raises(ValueError):
            matvec_mul(a_hat, v2)
        for b, s in ((v3, v2), (v2, v3), (v2, v2)):
            with pytest.raises(ValueError):
                encrypt_products(a_hat, b, s)


class TestCentered:
    def test_range_and_congruence(self):
        x = np.arange(-2 * Q, 2 * Q)
        c = centered(x)
        assert c.min() == -(Q // 2) and c.max() == Q // 2
        assert ((c - x) % Q == 0).all()


class TestCompress:
    def test_zero(self):
        for d in range(1, 12):
            assert compress(0, d) == 0
            assert decompress(0, d) == 0

    def test_known_values(self):
        assert compress(1665, 1) == 1  # 2*1665/3329 = 1.0003
        assert decompress(1, 1) == 1665  # round(3329/2), ties up
        assert compress(np.array([0, 832, 833, 2496, 2497]), 1).tolist() == \
            [0, 0, 1, 1, 0]
        assert decompress(np.array([0, 1, 2, 3]), 2).tolist() == \
            [0, 832, 1665, 2497]

    def test_range_closure(self):
        for d in range(1, 12):
            assert decompress((1 << d) - 1, d) < Q

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            compress(Q, 4)
        with pytest.raises(ValueError):
            compress(np.array([5, -1]), 4)
        with pytest.raises(ValueError):
            compress(5, 12)
        with pytest.raises(ValueError):
            decompress(np.array([3, 16]), 4)
        with pytest.raises(ValueError):
            decompress(0, 0)

    @pytest.mark.parametrize("d", range(1, 12))
    def test_roundtrip_bound_exhaustive(self, d):
        xs = np.arange(Q)
        rt = decompress(compress(xs, d), d)
        diff = centered(rt - xs)
        bound = (2 * Q + (1 << (d + 1))) // (1 << (d + 2))  # round(q/2^(d+1))
        assert np.abs(diff).max() <= bound

    @given(st.integers(0, Q - 1), st.integers(1, 11))
    def test_array_scalar_agree(self, x, d):
        # one function for scalars and arrays, both equal to exact rounding
        # of 2^d x / q with ties up: floor((2^(d+1) x + q) / 2q)
        exact = ((x << (d + 1)) + Q) // (2 * Q) % (1 << d)
        assert compress(np.array([x]), d)[0] == compress(x, d) == exact


def cbd_oracle(raw, eta, k):
    """Centered binomial vectors by summing bits: the unpacked bits of each
    coefficient, eta added and the next eta subtracted."""
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little").reshape(-1, k, N, 2, eta)
    sums = bits.sum(axis=-1, dtype=np.int64)
    return (sums[..., 0] - sums[..., 1]) % Q


def sample_noise_vector(stream, eta, k):
    """k centered binomial polynomials, as (k, 256), from one stream read."""
    return cbd_vectors(stream.read(64 * eta * k), eta, k)[0]


class TestCbd:
    @given(eta=st.sampled_from([2, 3]), k=st.integers(1, 4),
           count=st.integers(1, 3), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_equals_bit_sum_oracle(self, eta, k, count, data):
        size = 64 * eta * k * count
        raw = data.draw(st.binary(min_size=size, max_size=size))
        got = cbd_vectors(raw, eta, k)
        assert got.shape == (count, k, N)
        assert np.array_equal(got, cbd_oracle(raw, eta, k))

    def test_zero_stream(self):
        for eta in (2, 3):
            zero = io.BytesIO(bytes(64 * eta))
            assert not sample_noise_vector(zero, eta, 1).any()

    def test_stream_exhaustion(self):
        # raw input shorter than one vector (128 bytes at eta 2, k 1)
        with pytest.raises(ValueError):
            cbd_vectors(bytes(100), 2, 1)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            sample_noise_vector(io.BytesIO(bytes(512)), 4, 1)[0]

    @pytest.mark.parametrize("eta,k", [(2, 1), (2, 3), (3, 2), (3, 4)])
    def test_vector_is_polynomials_in_turn(self, eta, k):
        vec = sample_noise_vector(XofStream(b"v" * 32), eta, k)
        stream = XofStream(b"v" * 32)
        rows = [sample_noise_vector(stream, eta, 1)[0] for _ in range(k)]
        assert np.array_equal(vec, np.stack(rows))

    def test_vector_stream_exhaustion(self):
        with pytest.raises(ValueError):
            cbd_vectors(bytes(3 * 128 - 1), 2, 3)

    def test_eta2_pmf_enumeration(self):
        # all 16 4-bit patterns: distribution {1,4,6,4,1}/16 over -2..2
        counts = {}
        for pattern in range(16):
            bits = [(pattern >> i) & 1 for i in range(4)]
            v = bits[0] + bits[1] - bits[2] - bits[3]
            counts[v] = counts.get(v, 0) + 1
        assert counts == {-2: 1, -1: 4, 0: 6, 1: 4, 2: 1}
        # and the sampler realises exactly that map on single-coefficient input
        for pattern in range(16):
            data = bytes([pattern]) + bytes(127)
            got = int(sample_noise_vector(io.BytesIO(data), 2, 1)[0, 0])
            bits = [(pattern >> i) & 1 for i in range(4)]
            want = (bits[0] + bits[1] - bits[2] - bits[3]) % Q
            assert got == want

    def test_range(self):
        stream = XofStream(b"\x01" * 32, b"cbd-range")
        for eta in (2, 3):
            for _ in range(20):
                c = sample_noise_vector(stream, eta, 1)[0]
                ok = (c <= eta) | (c >= Q - eta)
                assert ok.all()

    def test_empirical_variance(self):
        # Var = eta/2 = 1.0 for eta 2; 10^6 samples
        stream = XofStream(b"\x02" * 32, b"cbd-var")
        total = 0.0
        n = 0
        for _ in range(1_000_000 // N):
            c = centered(sample_noise_vector(stream, 2, 1)[0])
            total += float((c.astype(float) ** 2).sum())
            n += N
        assert abs(total / n - 1.0) <= 0.01


def uniform_entry_oracle(seed, r, c):
    """Entry (r, c) of the coefficient-domain matrix, sampled entry by entry:
    12-bit words of the entry's SHAKE-128 stream, two per 3 bytes, kept
    while below q.  Returns (coefficients, stream bytes consumed)."""
    data = hashlib.shake_128(bytes([3]) + b"A" + bytes([r, c]) + seed).digest(3000)
    kept = []
    for at in range(0, len(data), 3):
        b0, b1, b2 = data[at:at + 3]
        for word in (b0 | ((b1 & 0x0F) << 8), (b1 >> 4) | (b2 << 4)):
            if word < Q and len(kept) < N:
                kept.append(word)
        if len(kept) == N:
            return kept, at + 3
    raise AssertionError("oracle ran out of stream")


@functools.cache
def read_on_seed():
    """The first seed of a fixed search whose k = 2 matrix has an entry that
    needs more than the UNIFORM_READ bytes of the one-pass expansion."""
    for t in range(1000):
        seed = b"fallback" + t.to_bytes(4, "little") + bytes(20)
        if any(uniform_entry_oracle(seed, r, c)[1] > UNIFORM_READ
               for r in range(2) for c in range(2)):
            return seed
    raise AssertionError("no seed needs the fallback")


class TestGenMatrix:
    def test_matches_entry_by_entry_oracle(self):
        for seed in (read_on_seed(), bytes(32), bytes(range(32))):
            for params in (KYBER512, KYBER1024):
                a = intt(gen_matrices([seed], params)[0])
                for r in range(params.k):
                    for c in range(params.k):
                        want, _ = uniform_entry_oracle(seed, r, c)
                        assert a[r, c].tolist() == want, (seed, r, c)

    def test_determinism(self):
        seed = bytes(range(32))
        a1 = gen_matrices([seed], KYBER768)[0]
        a2 = gen_matrices([seed], KYBER768)[0]
        assert a1.shape == (3, 3, N)
        assert np.array_equal(a1, a2)

    def test_seed_collisions(self):
        base = gen_matrices([bytes(32)], KYBER512)[0]
        for t in range(100):
            seed = t.to_bytes(4, "little") + bytes(28)
            if seed == bytes(32):
                continue
            other = gen_matrices([seed], KYBER512)[0]
            assert not np.array_equal(base, other)

    def test_coefficient_histogram_uniform(self):
        # >= 10^5 coefficients across many seeds, chi-square on 3329 cells
        from scipy.stats import chi2
        counts = np.zeros(Q, dtype=np.int64)
        draws = 0
        t = 0
        while draws < 100_000:
            seed = b"unif" + t.to_bytes(4, "little") + bytes(24)
            mat = intt(gen_matrices([seed], KYBER512)[0])  # sampled coefficients
            counts += np.bincount(mat.ravel(), minlength=Q)
            draws += mat.size
            t += 1
        expected = draws / Q
        stat = float(((counts - expected) ** 2 / expected).sum())
        # generous two-sided band at p ~ 1e-6
        assert chi2.ppf(1e-6, Q - 1) < stat < chi2.ppf(1 - 1e-6, Q - 1)

    def test_cached_matrix_is_read_only(self):
        seed = b"ro" + bytes(30)
        a = gen_matrices([seed], KYBER768)[0]
        before = a.copy()
        with pytest.raises(ValueError):
            a[0, 0, 0] = (a[0, 0, 0] + 1) % Q
        with pytest.raises(ValueError):
            a.flags.writeable = True
        assert np.array_equal(gen_matrices([seed], KYBER768)[0], before)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            gen_matrices([b"short"], KYBER768)
        with pytest.raises(ValueError):
            gen_matrices([bytes(32), b"short"], KYBER768)

    @pytest.mark.parametrize("params", [KYBER512, KYBER1024])
    def test_batch_equals_seed_by_seed(self, params):
        # a plain seed, one whose expansion reads on, another plain one and
        # a repeat of the first
        seeds = [b"batch" + bytes(27), read_on_seed(), bytes(range(32)),
                 b"batch" + bytes(27)]
        got = gen_matrices(seeds, params)
        assert got.shape == (4, params.k, params.k, N)
        for i, seed in enumerate(seeds):
            assert np.array_equal(got[i], gen_matrices([seed], params)[0])
        with pytest.raises(ValueError):
            got[0, 0, 0, 0] = 0
        with pytest.raises(ValueError):
            got.flags.writeable = True

    def test_full_batch_then_lookups(self):
        # a session batch at k = 4 is expanded once; the stacks that follow
        # with the same seeds are cache hits, and single lookups that evict
        # it leave the arrays already handed out intact
        seeds = [bytes([i]) * 32 for i in range(16)]
        a = gen_matrices(seeds, KYBER1024)
        before = a.copy()
        hits = _gen_matrix_cached.cache_info().hits
        assert gen_matrices(seeds, KYBER1024) is a
        assert _gen_matrix_cached.cache_info().hits == hits + 1
        for i, seed in enumerate(seeds):
            assert np.array_equal(gen_matrices([seed], KYBER1024)[0], a[i])
        assert np.array_equal(a, before)
        assert np.array_equal(gen_matrices(seeds, KYBER1024), before)


class TestStreams:
    @pytest.mark.parametrize("algo", ["shake_128", "shake_256"])
    @pytest.mark.parametrize("n", [0, 1, 32, 64, 504, 1000])
    def test_squeeze_is_stream_prefix(self, algo, n):
        stream = XofStream(b"\x05" * 32, b"lbl", algo)
        assert squeeze(b"\x05" * 32, b"lbl", n, algo) == stream.read(n)


class TestPacking:
    @given(st.lists(st.integers(0, 4095), min_size=2, max_size=64).filter(
        lambda v: len(v) % 2 == 0))
    @settings(max_examples=50)
    def test_roundtrip(self, values):
        arr = np.array(values, dtype=np.int64)
        assert (unpack12(pack12(arr), len(values)) == arr).all()

    def test_length(self):
        assert len(pack12(np.zeros(512, dtype=np.int64))) == 768
