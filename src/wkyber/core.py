"""Ring arithmetic, compression, samplers and matrix expansion.

Ring data over Z_q[x]/(x^n + 1), q = 3329, n = 256, is plain arrays of
integers in [0, q): a ring element is a (256,) int64 array, a module vector
a (k, 256) array.  Every ring product goes through mul_sum, which takes
its left operands transformed: ntt maps (..., 256) coefficients to
(..., 128) complex128 values by an exact right-angle FFT, and intt maps
products back; both work over the last axis and batch every leading one.
The tests hold a schoolbook oracle.  Every exact product entry is an
integer below 2^34 and the float error of a whole rank-k sum is far
below 1/2 (asserted at import), so rounding recovers it exactly.  The
public matrices of a batch of seeds are expanded together, as one
transformed array shared through a cache.  Every array callers share is
frozen: a copy held in bytes, so no array in its base chain can be written
or made writeable again.  Every other array a function returns is fresh,
save check_range's, which is an int64 argument itself, and functions are
pure.  Centered binomial noise is one table lookup per coefficient.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .params import N, Q, ParamSet

SEED_BYTES = 32
# bytes of each matrix entry's stream that gen_matrices parses in its first
# round: three SHAKE-128 blocks, the budget of Kyber's SampleNTT
UNIFORM_READ = 504

# ---------------------------------------------------------------------------
# byte streams


def squeeze(seed: bytes, label: bytes, n: int,
            algo: str = "shake_256") -> bytes:
    """The first n bytes of the SHAKE stream of seed, domain-separated by
    label.  SHAKE output is prefix-stable: the first m bytes of a longer
    squeeze are squeeze(..., m, ...), so a stream read in several parts is
    one squeeze of their total length, sliced."""
    return getattr(hashlib, algo)(bytes([len(label)]) + label + seed).digest(n)


def frozen(a: np.ndarray) -> np.ndarray:
    """A copy of a held in a bytes object, read-only for good: the one
    form of every array that callers share."""
    return np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)


def check_bytes(chunks, n: int) -> list:
    """Each session's string as bytes, ValueError unless every one is bytes
    or a bytearray of exactly n bytes."""
    chunks = list(chunks)
    got = [len(c) if isinstance(c, (bytes, bytearray)) else type(c).__name__
           for c in chunks]
    if any(g != n for g in got):
        raise ValueError(f"each session needs {n} bytes, got {got}")
    return [bytes(c) for c in chunks]


def check_sessions(*inputs):
    """ValueError unless every per-session input holds the same count."""
    counts = [len(x) for x in inputs]
    if len(set(counts)) > 1:
        raise ValueError(f"per-session inputs differ in count: {counts}")


def check_range(x, bound: int, what: str) -> np.ndarray:
    """x as an int64 array (x itself if it is one), ValueError unless it
    holds integers, not bool or float, each in [0, bound)."""
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {x.dtype}")
    x = x.astype(np.int64, copy=False)
    if x.view(np.uint64).max(initial=0) >= bound:  # negatives read >= 2^63
        raise ValueError(f"{what} outside [0, {bound})")
    return x


def check_probability(p) -> float:
    """p as a float, ValueError unless it lies in [0, 1] (NaN does not)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("bit error probability outside [0, 1]")
    return float(p)


# ---------------------------------------------------------------------------
# the ring transform
#
# x^256 = -1, so x^128 acts as i: a ring element is sum_j (a_j + i a_j+128)
# x^j over Z[i] modulo x^128 - i, and x = w t with w^128 = i makes products
# cyclic in t: the right-angle weighted transform of Crandall and Fagin
# ("Discrete weighted transforms and large-integer arithmetic", Math. Comp.
# 1994), one 128-point complex FFT.
#
# Percival ("Rapid multiplication modulo the sum and difference of highly
# composite numbers", Math. Comp. 2003) bounds each entry's float error in a
# 2^m-point FFT product of x and y by |x| |y| ((1 + eps)^3m (1 + eps
# sqrt5)^(3m + 1) (1 + beta)^3m - 1), eps = 2^-53, beta = 2 eps the error
# of the tabled roots.  The weights add three products by tabled roots, a
# rank-4 sum three additions; a weighted operand has |x| <= 16 (q - 1).  An
# exact entry of a rank-4 mul_sum is an integer below 4 n (q - 1)^2 < 2^34,
# so an error below 1/2 (about 1.2e-4) rounds to it exactly in intt.
_WEIGHTS = np.exp(1j * np.pi * np.arange(N // 2) / N)
_EPS = 2.0 ** -53   # m = 7, so 3m + 3 = 24 and 3m + 4 = 25
FFT_ERROR_BOUND = 4 * (16 * (Q - 1)) ** 2 * (
    (1 + _EPS) ** 24 * (1 + 5 ** 0.5 * _EPS) ** 25 * (1 + 2 * _EPS) ** 24 - 1)
assert 4 * N * (Q - 1) ** 2 < 2 ** 34 and FFT_ERROR_BOUND < 0.5


def ntt(coeffs: np.ndarray) -> np.ndarray:
    """Forward transform over the last axis: (..., 256) coefficients in
    [0, q) to (..., 128) complex128 values, fft((a[:128] + i a[128:]) w)
    with w_j = exp(i pi j / 256); leading axes are batched."""
    a = np.asarray(coeffs)
    z = np.empty((*a.shape[:-1], N // 2), dtype=np.complex128)
    z.real, z.imag = a[..., :N // 2], a[..., N // 2:]
    z *= _WEIGHTS
    return np.fft.fft(z)


def intt(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`ntt` over the last axis, for values whose exact
    inverse is integral (transforms, and mul_sum's sums of their products):
    ifft(.) conj(w), the real part as coefficients 0..127 and the imaginary
    part as 128..255, rounded and reduced to int64 in [0, q)."""
    z = np.fft.ifft(values) * _WEIGHTS.conj()
    return np.rint(np.concatenate((z.real, z.imag), -1)).astype(np.int64) % Q


# ---------------------------------------------------------------------------
# ring operations on coefficient arrays


def centered(x: np.ndarray) -> np.ndarray:
    """Representatives in [-(q-1)/2, (q-1)/2] of integers taken mod q."""
    return (np.asarray(x, dtype=np.int64) + Q // 2) % Q - Q // 2


def mul_sum(rows_hat: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Row i of sum_j rows_hat[..., i, j] * s[..., j], as (..., R, 256), for
    transformed (..., R, k, 128) rows and a (..., k, 256) coefficient
    vector, leading axes broadcast: one forward transform of s, the
    products summed over j in the transform domain, one inverse transform.
    Inputs hold integers in [0, q), rank k <= 4 (see FFT_ERROR_BOUND)."""
    if rows_hat.shape[-2:] != (s.shape[-2], N // 2):
        raise ValueError("rank mismatch")
    return intt((rows_hat * ntt(s)[..., None, :, :]).sum(axis=-2))


# ---------------------------------------------------------------------------
# compression (rounding quantisers between Z_q and Z_{2^d})


def compress(x: np.ndarray, d: int) -> np.ndarray:
    """round(2^d * x / q) mod 2^d, ties rounded up."""
    if not 1 <= d < 12:
        raise ValueError(f"compress width {d} outside [1, 12)")
    x = check_range(x, Q, "compress input")
    return ((x << (d + 1)) + Q) // (2 * Q) % (1 << d)


def decompress(y: np.ndarray, d: int) -> np.ndarray:
    """round(q * y / 2^d), ties rounded up."""
    if not 1 <= d < 12:
        raise ValueError(f"decompress width {d} outside [1, 12)")
    y = check_range(y, 1 << d, "decompress input")
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
    return cbd_vectors(b"".join(squeeze(s, label, 64 * eta * k) for s in
                                check_bytes(seeds, SEED_BYTES)), eta, k)


# a batch expands at most two seed tuples, the sender's and, when a seed
# block failed, the receiver's; session seeds never recur across batches
@functools.lru_cache(maxsize=2)
def _gen_matrix_cached(seeds: tuple, k: int) -> np.ndarray:
    streams = [(seed, b"A" + bytes([r, c]))
               for seed in seeds for r in range(k) for c in range(k)]
    a = np.empty((len(streams), N), dtype=np.int64)
    # an entry is its first 256 candidates below q; about 0.7% of entries
    # accept fewer in UNIFORM_READ bytes, and those read their streams
    # again at twice the length until they do (prefix-stable, see squeeze)
    short, n = np.arange(len(streams)), UNIFORM_READ
    while short.size:
        raw = b"".join(squeeze(*streams[i], n, "shake_128") for i in short)
        cand = unpack12(raw).reshape(len(short), -1)
        accepted = cand < Q
        counts = np.cumsum(accepted, axis=1, dtype=np.int16)
        done = counts[:, -1] >= N
        a[short[done]] = cand[accepted & (counts <= N)
                              & done[:, None]].reshape(-1, N)
        short, n = short[~done], 2 * n
        del cand, accepted, counts  # not held through the batch's transform
    return frozen(ntt(a.reshape(len(seeds), k, k, N)))


def gen_matrices(seeds, params: ParamSet) -> np.ndarray:
    """Pseudo-uniform k x k matrices, one per seed, transformed by ntt, as
    a frozen (B, k, k, 128) array.  Entry (r, c) takes the 12-bit
    candidates below q of its own SHAKE-128 stream, in order; all entries
    are parsed together and transformed in one call.  Memoised by the seeds, since a
    session batch touches the same matrices several times."""
    return _gen_matrix_cached(tuple(check_bytes(seeds, SEED_BYTES)), params.k)


# ---------------------------------------------------------------------------
# 12-bit coefficient packing (wire format: pairs of coefficients in 3 bytes,
# low byte first)


def pack12(coeffs: np.ndarray) -> bytes:
    """Pack 12-bit values of any shape, flattened in row-major order
    (ValueError outside [0, 4096), where packings would collide)."""
    c = check_range(coeffs, 1 << 12, "pack12 input").ravel()
    if len(c) % 2:
        raise ValueError("pack12 needs an even number of coefficients")
    c0, c1 = c[0::2], c[1::2]
    out = np.empty(3 * len(c0), dtype=np.uint8)
    out[0::3] = c0 & 0xFF
    out[1::3] = (c0 >> 8) | ((c1 & 0x0F) << 4)
    out[2::3] = c1 >> 4
    return out.tobytes()


def unpack12(data: bytes) -> np.ndarray:
    """The 2 len(data) / 3 values of pack12 bytes, flat (ValueError unless
    len(data) is a multiple of 3)."""
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint16).reshape(-1, 3)
    return np.column_stack([b[:, 0] | ((b[:, 1] & 0x0F) << 8),
                            (b[:, 1] >> 4) | (b[:, 2] << 4)]).astype(np.int64).ravel()
