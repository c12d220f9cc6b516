"""Ring arithmetic, compression, samplers and matrix expansion.

Ring data is plain int64 arrays over Z_q[x]/(x^n + 1) with q = 3329,
n = 256: a ring element is a (256,) array of coefficients in [0, q), a
module vector a (k, 256) array.  The transforms work over the last axis and
batch every leading one, so one call transforms a whole vector or matrix.
Multiplication has two paths: a fast negacyclic NTT (q supports a 256-point
transform that bottoms out in 128 quadratic factors) and a schoolbook
reference used as the test oracle.  The NTT and its inverse are each one
float64 product with a 128 x 128 matrix, applied to the even and the odd
coefficients alike and reduced mod q once.  Every partial sum is an integer
of at most 128 (q - 1)^2 < 2^53, so the product is exact whatever order BLAS
sums it in.  The public matrix is kept in the NTT domain, as a read-only
(k, k, 256) array shared through a cache; every other array a function
returns is fresh, and functions are pure.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .params import N, Q, ParamSet

SEED_BYTES = 32
# bytes of each matrix entry's stream that gen_matrix parses in one pass:
# three SHAKE-128 blocks, the budget of Kyber's SampleNTT
UNIFORM_READ = 504

# ---------------------------------------------------------------------------
# byte streams


class StreamExhausted(ValueError):
    """Raised when a fixed byte stream cannot supply the requested bytes."""


class XofStream:
    """Deterministic byte stream squeezed from SHAKE, domain-separated by label."""

    def __init__(self, seed: bytes, label: bytes = b"", algo: str = "shake_256"):
        h = hashlib.new(algo)
        h.update(bytes([len(label)]) + label + seed)
        self._h = h
        self._pos = 0
        self._buf = b""

    def read(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._buf):
            self._buf = self._h.digest(max(2 * end, 64))
        out = self._buf[self._pos:end]
        self._pos = end
        return out


class FixedStream:
    """Byte stream backed by a fixed buffer; exhaustion is an error."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise StreamExhausted(f"stream exhausted: requested {n} bytes, "
                                  f"{len(self._data) - self._pos} remain")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
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


def _transform(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    x = np.asarray(coeffs)
    pairs = x.reshape(*x.shape[:-1], N // 2, 2).astype(np.float64)
    return (matrix @ pairs).astype(np.int64).reshape(x.shape) % Q


def ntt(coeffs: np.ndarray) -> np.ndarray:
    """Forward negacyclic NTT over the last axis (length 256, coefficients
    in [0, q)); leading axes are batched, so one call transforms a whole
    vector or matrix with one exact float64 matrix product."""
    return _transform(coeffs, _V)


def intt(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`ntt` over the last axis, including the 1/128
    normalisation."""
    return _transform(coeffs, _V_INV)


def ntt_pointwise(fh: np.ndarray, gh: np.ndarray) -> np.ndarray:
    """Multiply NTT-domain elements (128 products mod x^2 - gamma_i) over
    the last axis, broadcasting the leading axes."""
    f0, f1 = fh[..., 0::2], fh[..., 1::2]
    g0, g1 = gh[..., 0::2], gh[..., 1::2]
    out = np.empty(np.broadcast_shapes(fh.shape, gh.shape), dtype=np.int64)
    out[..., 0::2] = (f0 * g0 + (f1 * g1) % Q * GAMMAS) % Q
    out[..., 1::2] = (f0 * g1 + f1 * g0) % Q
    return out


# ---------------------------------------------------------------------------
# ring operations on coefficient arrays


def centered(x: np.ndarray) -> np.ndarray:
    """Representatives in [-(q-1)/2, (q-1)/2] of integers taken mod q."""
    return (np.asarray(x, dtype=np.int64) + Q // 2) % Q - Q // 2


def poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product in Z_q[x]/(x^n + 1), NTT fast path."""
    return intt(ntt_pointwise(ntt(a), ntt(b)))


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
    return intt(ntt_pointwise(a_hat, ntt(s)[..., None, :, :]).sum(axis=-2) % Q)


def inner_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a_i * b_i over two (..., k, 256) vectors, leading axes
    batched: one ring element per vector pair."""
    if a.shape != b.shape:
        raise ValueError("rank mismatch")
    a_hat, b_hat = ntt(np.stack((a, b)))
    return intt(ntt_pointwise(a_hat, b_hat).sum(axis=-2) % Q)


def encrypt_products(a_hat: np.ndarray, b: np.ndarray,
                     s: np.ndarray) -> np.ndarray:
    """A^T s stacked over b^T s, as one (..., k + 1, 256) array, for
    NTT-domain (..., k, k, 256) matrices and two (..., k, 256) vectors,
    leading axes batched: one forward transform of (b, s) and one inverse
    transform of the k + 1 sums."""
    if a_hat.shape[-2:] != s.shape[-2:] or b.shape != s.shape:
        raise ValueError("rank mismatch")
    b_hat, s_hat = ntt(np.stack((b, s)))
    rows = np.concatenate((a_hat.swapaxes(-3, -2), b_hat[..., None, :, :]),
                          axis=-3)
    return intt(ntt_pointwise(rows, s_hat[..., None, :, :]).sum(axis=-2) % Q)


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


def cbd_vectors(raw: bytes, eta: int, k: int) -> np.ndarray:
    """Centered binomial vectors from raw bytes, as (B, k, 256) for the
    B = len(raw) / (64 eta k) vectors laid back to back: each coefficient
    is (sum of eta bits) minus (sum of eta bits), bits consumed
    little-endian, polynomial after polynomial."""
    if eta not in (2, 3):
        raise ValueError(f"unsupported eta={eta}")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little").reshape(-1, k, N, 2, eta)
    sums = bits.sum(axis=-1, dtype=np.int64)
    return (sums[..., 0] - sums[..., 1]) % Q


def sample_noise_vector(stream, eta: int, k: int) -> np.ndarray:
    """k centered binomial polynomials, as (k, 256), from one read of the
    stream (2 eta bits per coefficient)."""
    return cbd_vectors(stream.read(64 * eta * k), eta, k)[0]


@functools.lru_cache(maxsize=32)
def _gen_matrix_cached(seed: bytes, k: int) -> np.ndarray:
    streams = [XofStream(seed, label=b"A" + bytes([r, c]), algo="shake_128")
               for r in range(k) for c in range(k)]
    # an entry is its first 256 candidates below q; about 0.7% of entries
    # accept fewer in UNIFORM_READ bytes and read on
    raw = b"".join(st.read(UNIFORM_READ) for st in streams)
    cand = unpack12(raw, 2 * len(raw) // 3).reshape(k * k, -1)
    accepted = cand < Q
    take = accepted & (np.cumsum(accepted, axis=1) <= N)
    short = take.sum(axis=1) < N
    a = np.empty((k * k, N), dtype=np.int64)
    a[~short] = cand[~short][take[~short]].reshape(-1, N)
    for i in np.flatnonzero(short):  # read on in the entry's own stream
        kept = cand[i][accepted[i]]
        while len(kept) < N:
            more = unpack12(streams[i].read(UNIFORM_READ), 2 * UNIFORM_READ // 3)
            kept = np.concatenate([kept, more[more < Q]])
        a[i] = kept[:N]
    a_hat = ntt(a.reshape(k, k, N))
    # shared by every caller with this seed; a view of a read-only array
    # cannot be made writeable again
    a_hat.flags.writeable = False
    return a_hat[...]


def gen_matrix(seed: bytes, params: ParamSet) -> np.ndarray:
    """Deterministic pseudo-uniform k x k matrix in the NTT domain, as a
    read-only (k, k, 256) array.  Entry (r, c) is rejection-sampled in the
    coefficient domain from its own SHAKE-128 stream (12-bit candidates
    below q, in order), all entries in one pass, then the whole matrix is
    transformed in one call.  Pure in (seed, params); recent expansions are
    memoised since a session touches the same matrix several times."""
    return _gen_matrix_cached(check_seed(seed), params.k)


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
    b = np.frombuffer(data, dtype=np.uint8).astype(np.int64).reshape(-1, 3)
    c0 = b[:, 0] | ((b[:, 1] & 0x0F) << 8)
    c1 = (b[:, 1] >> 4) | (b[:, 2] << 4)
    return np.column_stack([c0, c1]).ravel()


def check_canonical(coeffs: np.ndarray) -> np.ndarray:
    """Pass wire-decoded ring coefficients through unless one is >= q."""
    if coeffs.max(initial=0) >= Q:
        raise ValueError("non-canonical coefficient >= q")
    return coeffs
