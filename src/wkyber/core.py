"""Ring arithmetic, compression, samplers and matrix expansion.

Ring data is plain int64 arrays over Z_q[x]/(x^n + 1) with q = 3329,
n = 256: a ring element is a (256,) array of coefficients in [0, q), a
module vector a (k, 256) array.  The transforms work over the last axis and
batch every leading one, so one call transforms a whole vector or matrix.
Multiplication has two paths: a fast negacyclic NTT (q supports a 256-point
transform that bottoms out in 128 quadratic factors) and a schoolbook
reference used as the test oracle.  The NTT and its inverse are each one
float64 product with a 128 x 128 matrix, applied to the even and the odd
coefficients alike and reduced mod q once.  NTT-domain products and their
sums over the rank stay in float64, reduced only at (f1 g1) mod q before
the gamma multiply.  Every partial sum is an integer below 2^53 (asserted
at import), so all of this is exact whatever order BLAS sums in.  The
public matrices of a batch of seeds are expanded together, as one
read-only NTT-domain array shared through a cache; every other array a
function returns is fresh, and functions are pure.  Centered binomial
noise takes one table lookup per coefficient.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .params import N, Q, ParamSet

SEED_BYTES = 32
# bytes of each matrix entry's stream that gen_matrices parses in one pass:
# three SHAKE-128 blocks, the budget of Kyber's SampleNTT
UNIFORM_READ = 504

# ---------------------------------------------------------------------------
# byte streams


def _xof(seed: bytes, label: bytes, algo: str):
    return getattr(hashlib, algo)(bytes([len(label)]) + label + seed)


def squeeze(seed: bytes, label: bytes, n: int,
            algo: str = "shake_256") -> bytes:
    """The first n bytes of XofStream(seed, label, algo), in one call: SHAKE
    output is prefix-stable, so a stream read once needs no buffer."""
    return _xof(seed, label, algo).digest(n)


class XofStream:
    """Deterministic byte stream squeezed from SHAKE, domain-separated by label."""

    def __init__(self, seed: bytes, label: bytes = b"", algo: str = "shake_256"):
        self._h = _xof(seed, label, algo)
        self._pos = 0
        self._buf = b""

    def read(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            self._buf = self._h.digest(max(2 * end, 64))
        out = self._buf[self._pos:end]
        self._pos = end
        return out


def check_seed(seed: bytes) -> bytes:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be exactly {SEED_BYTES} bytes")
    return bytes(seed)


# ---------------------------------------------------------------------------
# NTT tables
#
# 17 is a primitive 256th root of unity mod 3329 (there is no 512th root, so
# the transform stops one level early and multiplication finishes with 128
# degree-1 products mod x^2 - gamma_i, gamma_i = 17^(2 bitrev7(i) + 1)).
# Pair i of the transform is f mod (x^2 - gamma_i), i.e.
# (sum_j f_2j gamma_i^j, sum_j f_2j+1 gamma_i^j): the even and the odd
# coefficients each go through the 128 x 128 matrix V[i, j] = gamma_i^j, and
# back through V^-1[j, i] = gamma_i^-j / 128.

_ROOT = 17
_POWERS = np.array([pow(_ROOT, e, Q) for e in range(N)], dtype=np.int64)
_ODD = 2 * np.array([int(f"{i:07b}"[::-1], 2) for i in range(N // 2)]) + 1
GAMMAS = _POWERS[_ODD]
_EXPONENTS = np.outer(_ODD, np.arange(N // 2))  # gamma_i^j = 17^(odd_i j)
_V = _POWERS[_EXPONENTS % N].astype(np.float64)
_V_INV = (_POWERS[-_EXPONENTS.T % N] * pow(128, -1, Q) % Q).astype(np.float64)
# a sum of 128 products of coefficients in [0, q) is an integer that a
# float64 holds exactly, so the products below are exact whatever order
# BLAS sums them in
assert 128 * (Q - 1) ** 2 < 2 ** 53
# _mul_sum hands the inverse transform sums below 2 (q - 1)^2 per rank, for
# up to 4 ranks, and its 128-term partial sums stay exact too
_MAC_BOUND = 2 * 4 * (Q - 1) ** 2
assert 128 * (Q - 1) * _MAC_BOUND < 2 ** 53


def _mod_q(r: np.ndarray) -> np.ndarray:
    """r mod q for float64 integers 0 <= r < 2^53, exact, as float64."""
    return r - Q * np.floor(r / Q)


def _transform(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """matrix applied to the even and the odd coefficients over the last
    axis, as float64 integers in [0, q)."""
    x = np.asarray(coeffs)
    pairs = x.reshape(*x.shape[:-1], N // 2, 2).astype(np.float64, copy=False)
    return _mod_q(matrix @ pairs).reshape(x.shape)


def ntt(coeffs: np.ndarray) -> np.ndarray:
    """Forward negacyclic NTT over the last axis (length 256, coefficients
    in [0, q)); leading axes are batched, so one call transforms a whole
    vector or matrix with one exact float64 matrix product."""
    return _transform(coeffs, _V).astype(np.int64)


def intt(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`ntt` over the last axis, including the 1/128
    normalisation."""
    return _transform(coeffs, _V_INV).astype(np.int64)


def _mul_sum(f_hat: np.ndarray, g_hat: np.ndarray) -> np.ndarray:
    """Sum over axis -2 of the NTT-domain products f_i g_i (128 products
    mod x^2 - gamma_i each), leading axes broadcast, back in the
    coefficient domain.  Inputs hold integers in [0, q), rank k <= 4; the
    products and sums stay unreduced but for (f1 g1) mod q before its gamma
    multiply, so each is below 2 (q - 1)^2 per rank (see _MAC_BOUND)."""
    f0, f1 = f_hat[..., 0::2], f_hat[..., 1::2]
    g0, g1 = g_hat[..., 0::2], g_hat[..., 1::2]
    even = (f0 * g0).sum(axis=-2) + _mod_q((f1 * g1).sum(axis=-2)) * GAMMAS
    out = np.empty((*even.shape[:-1], N))
    out[..., 0::2] = even
    out[..., 1::2] = (f0 * g1 + f1 * g0).sum(axis=-2)
    return intt(out)


# ---------------------------------------------------------------------------
# ring operations on coefficient arrays


def centered(x: np.ndarray) -> np.ndarray:
    """Representatives in [-(q-1)/2, (q-1)/2] of integers taken mod q."""
    return (np.asarray(x, dtype=np.int64) + Q // 2) % Q - Q // 2


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product in Z_q[x]/(x^n + 1), NTT fast path."""
    return _mul_sum(*_transform(np.stack((a, b))[:, None], _V))


def poly_mul_schoolbook(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """O(n^2) reference multiplier; the oracle the NTT path is tested against."""
    prod = np.convolve(a, b)  # worst coeff 256*3328^2 < 2^63
    folded = prod[:N].copy()
    folded[:N - 1] -= prod[N:]  # x^n = -1
    return folded % Q


def matvec_mul(a_hat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """A s for NTT-domain (..., k, k, 256) matrices and (..., k, 256)
    vectors, leading axes batched; accumulates in the NTT domain."""
    if a_hat.shape[-2:] != s.shape[-2:]:
        raise ValueError("rank mismatch")
    return _mul_sum(a_hat, _transform(s, _V)[..., None, :, :])


def inner_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a_i * b_i over two (..., k, 256) vectors, leading axes
    batched: one ring element per vector pair."""
    if a.shape != b.shape:
        raise ValueError("rank mismatch")
    return _mul_sum(*_transform(np.stack((a, b)), _V))


def encrypt_products(a_hat: np.ndarray, b: np.ndarray,
                     s: np.ndarray) -> np.ndarray:
    """A^T s stacked over b^T s, as one (..., k + 1, 256) array, for
    NTT-domain (..., k, k, 256) matrices and two (..., k, 256) vectors,
    leading axes batched: one forward transform of (b, s) and one inverse
    transform of the k + 1 sums."""
    if a_hat.shape[-2:] != s.shape[-2:] or b.shape != s.shape:
        raise ValueError("rank mismatch")
    b_hat, s_hat = _transform(np.stack((b, s)), _V)
    rows = np.concatenate((a_hat.swapaxes(-3, -2), b_hat[..., None, :, :]),
                          axis=-3)
    return _mul_sum(rows, s_hat[..., None, :, :])


# ---------------------------------------------------------------------------
# compression (rounding quantisers between Z_q and Z_{2^d})


def compress(x: np.ndarray, d: int) -> np.ndarray:
    """round(2^d * x / q) mod 2^d, ties rounded up."""
    if not 1 <= d < 12:
        raise ValueError(f"compress width {d} outside [1, 12)")
    x = np.asarray(x, dtype=np.int64)
    if x.min(initial=0) < 0 or x.max(initial=0) >= Q:
        raise ValueError("compress input outside [0, q)")
    return ((x << (d + 1)) + Q) // (2 * Q) % (1 << d)


def decompress(y: np.ndarray, d: int) -> np.ndarray:
    """round(q * y / 2^d), ties rounded up."""
    if not 1 <= d < 12:
        raise ValueError(f"decompress width {d} outside [1, 12)")
    y = np.asarray(y, dtype=np.int64)
    if y.min(initial=0) < 0 or y.max(initial=0) >= (1 << d):
        raise ValueError(f"decompress input outside [0, 2^{d})")
    return ((Q * y << 1) + (1 << d)) >> (d + 1)


# ---------------------------------------------------------------------------
# samplers


# CBD_eta of a 2 eta-bit field f: the sum of its low eta bits minus the sum
# of its high eta bits, mod q
_CBD_TABLES = {eta: np.array([(bin(f % (1 << eta)).count("1")
                               - bin(f >> eta).count("1")) % Q
                              for f in range(1 << 2 * eta)])
               for eta in (2, 3)}


def cbd_vectors(raw: bytes, eta: int, k: int) -> np.ndarray:
    """Centered binomial vectors from raw bytes, as (B, k, 256) for the
    B = len(raw) / (64 eta k) vectors laid back to back, polynomial after
    polynomial: each 2 eta bits, read little-endian (four fields in every
    eta bytes), give one coefficient by one lookup in _CBD_TABLES."""
    if eta not in _CBD_TABLES:
        raise ValueError(f"unsupported eta={eta}")
    words = np.zeros((len(raw) // eta, 4), dtype=np.uint8)
    words[:, :eta] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, eta)
    fields = ((words.view("<u4") >> (2 * eta * np.arange(4, dtype=np.uint32)))
              & ((1 << 2 * eta) - 1))
    return _CBD_TABLES[eta][fields].reshape(-1, k, N)


def noise_vectors(seeds, label: bytes, eta: int, k: int) -> np.ndarray:
    """(B, k, 256) centered binomial vectors, one per 32-byte seed, each
    from one squeeze of the seed's stream under label."""
    return cbd_vectors(b"".join(squeeze(check_seed(s), label, 64 * eta * k)
                                for s in seeds), eta, k)


@functools.lru_cache(maxsize=8)
def _gen_matrix_cached(seeds: tuple, k: int) -> np.ndarray:
    labels = [b"A" + bytes([r, c]) for r in range(k) for c in range(k)]
    # an entry is its first 256 candidates below q; about 0.7% of entries
    # accept fewer in UNIFORM_READ bytes and read on
    raw = b"".join(squeeze(seed, label, UNIFORM_READ, "shake_128")
                   for seed in seeds for label in labels)
    cand = unpack12(raw, 2 * len(raw) // 3).reshape(-1, 2 * UNIFORM_READ // 3)
    accepted = cand < Q
    counts = np.cumsum(accepted, axis=1, dtype=np.int16)
    short = counts[:, -1] < N
    a = np.empty((len(cand), N), dtype=np.int64)
    a[~short] = cand[accepted & (counts <= N) & ~short[:, None]].reshape(-1, N)
    for i in np.flatnonzero(short):  # read on in the entry's own stream
        seed, label = seeds[i // len(labels)], labels[i % len(labels)]
        n, kept = UNIFORM_READ, cand[i][accepted[i]]
        while len(kept) < N:
            n *= 2
            words = unpack12(squeeze(seed, label, n, "shake_128"), 2 * n // 3)
            kept = words[words < Q]
        a[i] = kept[:N]
    del cand, accepted, counts  # not held through the batch's transform
    a_hat = ntt(a.reshape(len(seeds), k, k, N))
    # shared by every caller with these seeds; a view of a read-only array
    # cannot be made writeable again
    a_hat.flags.writeable = False
    return a_hat[...]


def gen_matrices(seeds, params: ParamSet) -> np.ndarray:
    """Pseudo-uniform k x k NTT-domain matrices, one per seed, as a
    read-only (B, k, k, 256) array.  Entry (r, c) takes the 12-bit
    candidates below q of its own SHAKE-128 stream, in order; all entries
    are parsed and transformed in one pass.  Memoised by the seeds, since a
    session batch touches the same matrices several times."""
    return _gen_matrix_cached(tuple(check_seed(s) for s in seeds), params.k)


# ---------------------------------------------------------------------------
# 12-bit coefficient packing (wire format: pairs of coefficients in 3 bytes,
# low byte first)


def pack12(coeffs: np.ndarray) -> bytes:
    """Pack coefficients of any shape, flattened in row-major order."""
    c = np.asarray(coeffs, dtype=np.int64).ravel()
    if len(c) % 2:
        raise ValueError("pack12 needs an even number of coefficients")
    c0, c1 = c[0::2], c[1::2]
    out = np.empty(3 * len(c0), dtype=np.uint8)
    out[0::3] = c0 & 0xFF
    out[1::3] = (c0 >> 8) | ((c1 & 0x0F) << 4)
    out[2::3] = c1 >> 4
    return out.tobytes()


def unpack12(data: bytes, count: int) -> np.ndarray:
    if len(data) * 2 != count * 3:
        raise ValueError("length mismatch in unpack12")
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint16).reshape(-1, 3)
    return np.column_stack([b[:, 0] | ((b[:, 1] & 0x0F) << 8),
                            (b[:, 1] >> 4) | (b[:, 2] << 4)]).astype(np.int64).ravel()


def unpack_ring(data: bytes, rows: int) -> np.ndarray:
    """The one wire decoder of ring data: pack12 bytes to (rows, 256)
    coefficients, rejecting any coefficient >= q, so every accepted
    encoding is canonical.  Secrets decode with rows = k, ciphertexts with
    k + 1, a public key's b after its 32 seed bytes (check_seed) with k."""
    coeffs = unpack12(data, rows * N)
    if coeffs.max(initial=0) >= Q:
        raise ValueError("non-canonical coefficient >= q")
    return coeffs.reshape(rows, N)
