import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wkyber.core import (UNIFORM_READ, _gen_matrix_cached,
                         cbd_vectors, centered, compress, decompress,
                         gen_matrices, intt, mul_sum, ntt, pack12,
                         poly_mul_schoolbook, squeeze, unpack12)
from wkyber.params import KYBER512, KYBER768, KYBER1024, N, Q


def rand_poly(rng, shape=()):
    return rng.integers(0, Q, (*shape, N))


def ring_product(a, b):
    """a * b as mul_sum's one row (a) against the one-entry vector (b)."""
    return mul_sum(ntt(a)[None, None], b[None])[0]


def dot(b, s):
    """b^T s for (..., k, 256) vectors, as wk_decrypt forms s^T u."""
    return mul_sum(ntt(b)[..., None, :, :], s)[..., 0, :]


def encryption_rows(a_hat, b):
    """The transformed rows A^T stacked over b^T, as wk_encrypt builds them."""
    return np.concatenate((a_hat.swapaxes(-3, -2), ntt(b)[..., None, :, :]),
                          axis=-3)


def ntt_by_definition():
    """Row f evaluates a polynomial at zeta_f = exp(i pi (1 - 4 f) / 256),
    a root of x^256 + 1; the conjugate roots give the conjugate values."""
    f, j = np.arange(N // 2)[:, None], np.arange(N)
    return np.exp(1j * np.pi * ((1 - 4 * f) * j % (2 * N)) / N)


NTT_MATRIX = ntt_by_definition()
seeds = st.integers(0, 2 ** 32 - 1)
# a ring element, a module vector and a module matrix for every rank
BATCH_SHAPES = [(), (2,), (3,), (4,), (2, 2), (3, 3), (4, 4)]
batch_shapes = st.sampled_from(BATCH_SHAPES)


def assert_is_transform(got, x):
    """got is x evaluated at the 128 roots of NTT_MATRIX, to float error."""
    assert np.abs(got - x @ NTT_MATRIX.T).max() <= 1e-9 * N * Q


class TestNtt:
    @given(batch_shapes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_row_by_row(self, lead, seed):
        x = rand_poly(np.random.default_rng(seed), lead)
        got = ntt(x)
        assert got.shape == (*lead, N // 2)
        for idx in np.ndindex(lead):
            assert np.array_equal(got[idx], ntt(x[idx]))
        assert_is_transform(got, x)

    @given(batch_shapes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_inverse_roundtrip(self, lead, seed):
        x = rand_poly(np.random.default_rng(seed), lead)
        assert np.array_equal(intt(ntt(x)), x)
        # any integral preimage comes back reduced mod q, negatives too
        y = (7 * x + 1) % Q
        assert np.array_equal(intt(ntt(x) - ntt(y)), (x - y) % Q)

    def test_domain_dtypes(self):
        # transformed data is complex128 (..., 128) from ntt to intt,
        # coefficients int64 (..., 256)
        x = rand_poly(np.random.default_rng(9), (2,))
        x_hat = ntt(x)
        assert x_hat.dtype == np.complex128 and x_hat.shape == (2, N // 2)
        assert intt(x_hat).dtype == np.int64 and intt(x_hat).shape == (2, N)
        assert x_hat.nbytes == x.astype(np.float64).nbytes

    def test_does_not_modify_input(self):
        x = rand_poly(np.random.default_rng(10), (3,))
        x_hat = ntt(x)
        before, hat_before = x.copy(), x_hat.copy()
        ntt(x)
        intt(x_hat)
        assert np.array_equal(x, before) and np.array_equal(x_hat, hat_before)

    @pytest.mark.parametrize("lead", BATCH_SHAPES)
    @pytest.mark.parametrize("fill", [0, Q - 1])
    def test_extreme_inputs(self, lead, fill):
        # all-(q-1) input gives every transform value its largest modulus
        x = np.full((*lead, N), fill, dtype=np.int64)
        assert_is_transform(ntt(x), x)
        assert np.array_equal(intt(ntt(x)), x)

    @pytest.mark.parametrize("view", [
        lambda a: a[:9].reshape(3, 3, -1).swapaxes(0, 1),
        lambda a: np.ascontiguousarray(a[:3].T).T,    # strided last axis
        lambda a: a[:4][:-1],                         # a ciphertext's u
    ])
    def test_views_equal_copies(self, view):
        x = rand_poly(np.random.default_rng(12), (9,))
        coeffs, values = view(x), view(ntt(x))
        assert np.array_equal(ntt(coeffs), ntt(coeffs.copy()))
        assert np.array_equal(intt(values), intt(values.copy()))


class TestPolyMul:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(2)
        one = np.zeros(N, dtype=np.int64)
        one[0] = 1
        a = rand_poly(rng)
        assert np.array_equal(ring_product(a, one), a)

    def test_negacyclic_wraparound(self):
        # x^(n-1) * x = x^n = -1
        hi = np.zeros(N, dtype=np.int64)
        hi[N - 1] = 1
        x = np.zeros(N, dtype=np.int64)
        x[1] = 1
        r = ring_product(hi, x)
        assert r[0] == Q - 1
        assert (r[1:] == 0).all()

    def test_ntt_equals_schoolbook(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = rand_poly(rng), rand_poly(rng)
            assert np.array_equal(ring_product(a, b),
                                  poly_mul_schoolbook(a, b))

    def test_closure(self):
        rng = np.random.default_rng(4)
        r = ring_product(rand_poly(rng), rand_poly(rng))
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
        assert np.array_equal(mul_sum(ntt(ident), s), s)
        assert np.array_equal(mul_sum(encryption_rows(ntt(ident), s), s)[:-1],
                              s)

    def test_zero_matrix(self):
        rng = np.random.default_rng(6)
        zero = np.zeros((2, 2, N), dtype=np.int64)
        s = rand_poly(rng, (2,))
        assert not mul_sum(ntt(zero), s).any()

    @given(k=st.sampled_from([2, 3, 4]), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_entrywise_oracle(self, k, seed):
        rng = np.random.default_rng(seed)
        a, a_hat = rand_matrix(rng, k)
        s = rand_poly(rng, (k,))
        got = mul_sum(a_hat, s)
        assert got.shape == (k, N)
        for i in range(k):
            assert np.array_equal(got[i], schoolbook_dot(a[i], s))

    @given(k=st.sampled_from([2, 3, 4]), seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_encryption_rows(self, k, seed):
        # schoolbook A^T s and b^T s, one row each
        rng = np.random.default_rng(seed)
        a, a_hat = rand_matrix(rng, k)
        b, s = rand_poly(rng, (k,)), rand_poly(rng, (k,))
        got = mul_sum(encryption_rows(a_hat, b), s)
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
        mv = mul_sum(a_hat, s)
        ip = dot(b, s)
        ep = mul_sum(encryption_rows(a_hat, b), s)
        assert mv.shape == (*batch, k, N) and ip.shape == (*batch, N)
        assert ep.shape == (*batch, k + 1, N)
        for idx in np.ndindex(*batch):
            assert np.array_equal(mv[idx], mul_sum(a_hat[idx], s[idx]))
            assert np.array_equal(
                ep[idx], mul_sum(encryption_rows(a_hat[idx], b[idx]), s[idx]))
            assert np.array_equal(ip[idx], schoolbook_dot(b[idx], s[idx]))

    @pytest.mark.parametrize("domain", ["alternating", "coefficients"])
    def test_extreme_inputs(self, domain):
        # all-(q-1) operands at k = 4, batched, give the transform products
        # their largest norms; q - 1 and 0 alternating aligns the
        # negacyclic wrap with the extremes
        k = 4
        full = np.full((2, k, k, N), Q - 1, dtype=np.int64)
        a = full if domain == "coefficients" else full * (np.arange(N) % 2)
        b = s = a[:, 0]
        a_hat = ntt(a)
        mv, ip = mul_sum(a_hat, s), dot(b, s)
        ep = mul_sum(encryption_rows(a_hat, b), s)
        for i in range(2):
            for r in range(k):
                assert np.array_equal(mv[i, r], schoolbook_dot(a[i, r], s[i]))
                assert np.array_equal(ep[i, r],
                                      schoolbook_dot(a[i, :, r], s[i]))
            assert np.array_equal(ip[i], schoolbook_dot(b[i], s[i]))
            assert np.array_equal(ep[i, k], ip[i])

    @pytest.mark.parametrize("pattern", [
        lambda j: np.full_like(j, Q - 1),
        lambda j: (Q - 1) * (j % 2),
        lambda j: (Q - 1) * (j < N // 2),
        lambda j: (Q - 1) * ((j // 2) % 2),
    ])
    def test_worst_case_residual(self, pattern):
        # the rank-4 sum of extreme products, before intt rounds it: every
        # entry lies within 1e-3 of the integer it rounds to, and rounding
        # gives the schoolbook result
        k = 4
        a = np.broadcast_to(pattern(np.arange(N)), (k, k, N))
        s = a[0]
        summed = (ntt(a) * ntt(s)[None]).sum(axis=-2)
        r = np.fft.ifft(summed) * np.exp(-1j * np.pi * np.arange(N // 2) / N)
        for part in (r.real, r.imag):
            assert np.abs(part - np.rint(part)).max() < 1e-3
        got = intt(summed)
        for i in range(k):
            assert np.array_equal(got[i], schoolbook_dot(a[i], s))

    @given(k=st.sampled_from([2, 3, 4]),
           batch=st.sampled_from([(1,), (2,), (2, 2)]), seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_batched_matches_schoolbook(self, k, batch, seed):
        rng = np.random.default_rng(seed)
        a, s = rand_poly(rng, (*batch, k, k)), rand_poly(rng, (*batch, k))
        got = mul_sum(ntt(a), s)
        assert got.shape == (*batch, k, N)
        for idx in np.ndindex(*batch):
            for i in range(k):
                assert np.array_equal(got[idx][i],
                                      schoolbook_dot(a[idx][i], s[idx]))

    def test_rank_mismatch(self):
        _, a_hat = rand_matrix(np.random.default_rng(8), 3)
        v2, v3 = np.zeros((2, N), dtype=np.int64), np.zeros((3, N), dtype=np.int64)
        # a rank-3 matrix against a rank-2 vector, and a row of each rank
        # against a vector of the other
        for rows, s in ((a_hat, v2), (ntt(v3)[None], v2), (ntt(v2)[None], v3)):
            with pytest.raises(ValueError):
                mul_sum(rows, s)


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


def sample_noise_vector(raw, eta, k):
    """k centered binomial polynomials, as (k, 256), from 64 eta k bytes."""
    return cbd_vectors(raw, eta, k)[0]


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
            assert not sample_noise_vector(bytes(64 * eta), eta, 1).any()

    def test_stream_exhaustion(self):
        # raw input shorter than one vector (128 bytes at eta 2, k 1)
        with pytest.raises(ValueError):
            cbd_vectors(bytes(100), 2, 1)

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            sample_noise_vector(bytes(512), 4, 1)[0]

    @pytest.mark.parametrize("eta,k", [(2, 1), (2, 3), (3, 2), (3, 4)])
    def test_vector_is_polynomials_in_turn(self, eta, k):
        raw = squeeze(b"v" * 32, b"", 64 * eta * k)
        vec = sample_noise_vector(raw, eta, k)
        size = 64 * eta  # one polynomial's bytes, read in turn
        rows = [sample_noise_vector(raw[j * size:(j + 1) * size], eta, 1)[0]
                for j in range(k)]
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
            got = int(sample_noise_vector(data, 2, 1)[0, 0])
            bits = [(pattern >> i) & 1 for i in range(4)]
            want = (bits[0] + bits[1] - bits[2] - bits[3]) % Q
            assert got == want

    def test_range(self):
        # 20 polynomials at eta 2, then 20 at eta 3, read in turn
        raw = squeeze(b"\x01" * 32, b"cbd-range", 20 * 64 * (2 + 3))
        for eta, part in ((2, raw[:20 * 128]), (3, raw[20 * 128:])):
            c = cbd_vectors(part, eta, 1)
            assert c.shape == (20, 1, N)
            assert ((c <= eta) | (c >= Q - eta)).all()

    def test_empirical_variance(self):
        # Var = eta/2 = 1.0 for eta 2; 10^6 samples
        polys = 1_000_000 // N
        c = centered(cbd_vectors(squeeze(b"\x02" * 32, b"cbd-var",
                                         polys * 128), 2, 1))
        assert abs(float((c.astype(float) ** 2).mean()) - 1.0) <= 0.01


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
        assert a1.shape == (3, 3, N // 2)
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
            a[0, 0, 0] = 0
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
        assert got.shape == (4, params.k, params.k, N // 2)
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
        # a stream read in parts is one squeeze of their total, sliced
        for longer in (n + 1, 2 * n + 64, 4096):
            assert (squeeze(b"\x05" * 32, b"lbl", longer, algo)[:n]
                    == squeeze(b"\x05" * 32, b"lbl", n, algo))


class TestPacking:
    @given(st.lists(st.integers(0, 4095), min_size=2, max_size=64).filter(
        lambda v: len(v) % 2 == 0))
    @settings(max_examples=50)
    def test_roundtrip(self, values):
        arr = np.array(values, dtype=np.int64)
        assert (unpack12(pack12(arr), len(values)) == arr).all()

    def test_length(self):
        assert len(pack12(np.zeros(512, dtype=np.int64))) == 768
