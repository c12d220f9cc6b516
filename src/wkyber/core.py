"""Ring arithmetic, compression, samplers and matrix expansion.

Everything operates on polynomials over Z_q[x]/(x^n + 1) with q = 3329,
n = 256.  Multiplication has two paths: a fast negacyclic NTT (q supports a
256-point transform that bottoms out in 128 quadratic factors) and a
schoolbook reference used as the test oracle.  All values are immutable
after construction; functions are pure.
"""

from __future__ import annotations

import functools
import hashlib
import os

import numpy as np

from .params import N, Q, ParamSet

SEED_BYTES = 32

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


class SystemRandomStream:
    """OS entropy; only for non-reproducible key generation."""

    def read(self, n: int) -> bytes:
        return os.urandom(n)


def check_seed(seed: bytes) -> bytes:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
        raise ValueError(f"seed must be exactly {SEED_BYTES} bytes")
    return bytes(seed)


# ---------------------------------------------------------------------------
# NTT tables
#
# 17 is a primitive 256th root of unity mod 3329 (there is no 512th root, so
# the transform stops one level early and multiplication finishes with 128
# degree-1 products mod x^2 - gamma_i).


def _bitrev7(x: int) -> int:
    r = 0
    for _ in range(7):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


_ROOT = 17
ZETAS = np.array([pow(_ROOT, _bitrev7(i), Q) for i in range(128)], dtype=np.int64)
GAMMAS = np.array([pow(_ROOT, 2 * _bitrev7(i) + 1, Q) for i in range(128)],
                  dtype=np.int64)
_N_INV = pow(128, -1, Q)  # Gentleman-Sande inverse runs 7 layers


def ntt(coeffs: np.ndarray) -> np.ndarray:
    """Forward negacyclic NTT of a length-256 coefficient array."""
    f = coeffs.copy()
    i = 1
    length = 128
    while length >= 2:
        blocks = N // (2 * length)
        v = f.reshape(blocks, 2, length)
        z = ZETAS[i:i + blocks, None]
        i += blocks
        t = (z * v[:, 1, :]) % Q
        v[:, 1, :] = (v[:, 0, :] - t) % Q
        v[:, 0, :] = (v[:, 0, :] + t) % Q
        length >>= 1
    return f


def intt(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`ntt`, including the 1/128 normalisation."""
    f = coeffs.copy()
    i = 127
    length = 2
    while length <= 128:
        blocks = N // (2 * length)
        v = f.reshape(blocks, 2, length)
        z = ZETAS[i - blocks + 1:i + 1][::-1].copy()[:, None]
        i -= blocks
        t = v[:, 0, :].copy()
        v[:, 0, :] = (t + v[:, 1, :]) % Q
        v[:, 1, :] = (z * (v[:, 1, :] - t)) % Q
        length <<= 1
    return (f * _N_INV) % Q


def ntt_pointwise(fh: np.ndarray, gh: np.ndarray) -> np.ndarray:
    """Multiply two NTT-domain elements (128 products mod x^2 - gamma_i)."""
    f0, f1 = fh[0::2], fh[1::2]
    g0, g1 = gh[0::2], gh[1::2]
    out = np.empty(N, dtype=np.int64)
    out[0::2] = (f0 * g0 + (f1 * g1) % Q * GAMMAS) % Q
    out[1::2] = (f0 * g1 + f1 * g0) % Q
    return out


# ---------------------------------------------------------------------------
# ring types


class RingElement:
    """A polynomial of degree < 256 with coefficients reduced mod 3329."""

    __slots__ = ("coeffs", "_ntt")

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.shape != (N,):
            raise ValueError(f"expected {N} coefficients, got shape {arr.shape}")
        self.coeffs = arr % Q
        self._ntt = None

    @classmethod
    def zero(cls) -> "RingElement":
        return cls(np.zeros(N, dtype=np.int64))

    def ntt_form(self) -> np.ndarray:
        # cached; safe because coefficients are never mutated after init
        if self._ntt is None:
            self._ntt = ntt(self.coeffs)
        return self._ntt

    def centered(self) -> np.ndarray:
        """Coefficients as signed representatives in (-q/2, q/2]."""
        c = self.coeffs.copy()
        c[c > Q // 2] -= Q
        return c

    def __eq__(self, other):
        return isinstance(other, RingElement) and np.array_equal(self.coeffs,
                                                                 other.coeffs)

    def __repr__(self):
        return f"RingElement({self.coeffs.tolist()!r})"


class RingVector:
    """A rank-k vector of ring elements."""

    __slots__ = ("elems",)

    def __init__(self, elems):
        self.elems = list(elems)
        if not all(isinstance(e, RingElement) for e in self.elems):
            raise TypeError("RingVector holds RingElement entries")

    @classmethod
    def zero(cls, k: int) -> "RingVector":
        return cls([RingElement.zero() for _ in range(k)])

    @property
    def k(self) -> int:
        return len(self.elems)

    def coeff_array(self) -> np.ndarray:
        """All coefficients as a flat (k*n,) array, element-major."""
        return np.concatenate([e.coeffs for e in self.elems])

    def __iter__(self):
        return iter(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __eq__(self, other):
        return (isinstance(other, RingVector) and self.k == other.k
                and all(a == b for a, b in zip(self.elems, other.elems)))


class RingMatrix:
    """A k x k matrix of ring elements."""

    __slots__ = ("rows", "_ntt_rows")

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        k = len(self.rows)
        if any(len(r) != k for r in self.rows):
            raise ValueError("matrix must be square")
        self._ntt_rows = None

    @property
    def k(self) -> int:
        return len(self.rows)

    def ntt_rows(self) -> np.ndarray:
        if self._ntt_rows is None:
            k = self.k
            out = np.empty((k, k, N), dtype=np.int64)
            for i in range(k):
                for j in range(k):
                    out[i, j] = self.rows[i][j].ntt_form()
            self._ntt_rows = out
        return self._ntt_rows

    def __getitem__(self, i):
        return self.rows[i]


# ---------------------------------------------------------------------------
# ring operations


def poly_add(a: RingElement, b: RingElement) -> RingElement:
    return RingElement(a.coeffs + b.coeffs)


def poly_sub(a: RingElement, b: RingElement) -> RingElement:
    return RingElement(a.coeffs - b.coeffs)


def poly_mul(a: RingElement, b: RingElement) -> RingElement:
    """Product in Z_q[x]/(x^n + 1), NTT fast path."""
    return RingElement(intt(ntt_pointwise(a.ntt_form(), b.ntt_form())))


def poly_mul_schoolbook(a: RingElement, b: RingElement) -> RingElement:
    """O(n^2) reference multiplier; the oracle the NTT path is tested against."""
    prod = np.convolve(a.coeffs, b.coeffs)  # worst coeff 256*3328^2 < 2^63
    folded = prod[:N].copy()
    folded[:N - 1] -= prod[N:]  # x^n = -1
    return RingElement(folded)


def vec_add(a: RingVector, b: RingVector) -> RingVector:
    if a.k != b.k:
        raise ValueError("rank mismatch")
    return RingVector([poly_add(x, y) for x, y in zip(a, b)])


def matvec_mul(A: RingMatrix, s: RingVector, transpose: bool = False) -> RingVector:
    """A*s (or A^T*s) over the module; accumulates in the NTT domain."""
    k = A.k
    if s.k != k:
        raise ValueError("rank mismatch")
    a_ntt = A.ntt_rows()
    s_ntt = [e.ntt_form() for e in s]
    out = []
    for i in range(k):
        acc = np.zeros(N, dtype=np.int64)
        for j in range(k):
            entry = a_ntt[j, i] if transpose else a_ntt[i, j]
            acc = (acc + ntt_pointwise(entry, s_ntt[j])) % Q
        out.append(RingElement(intt(acc)))
    return RingVector(out)


def inner_product(a: RingVector, b: RingVector) -> RingElement:
    """Sum of a_i * b_i, a single ring element."""
    if a.k != b.k:
        raise ValueError("rank mismatch")
    acc = np.zeros(N, dtype=np.int64)
    for x, y in zip(a, b):
        acc = (acc + ntt_pointwise(x.ntt_form(), y.ntt_form())) % Q
    return RingElement(intt(acc))


# ---------------------------------------------------------------------------
# compression (rounding quantisers between Z_q and Z_{2^d})


def compress(x: int, d: int) -> int:
    """round(2^d * x / q) mod 2^d, ties rounded up."""
    if not 0 <= x < Q:
        raise ValueError(f"compress input {x} outside [0, {Q})")
    if not 1 <= d < 12:
        raise ValueError(f"compress width {d} outside [1, 12)")
    return ((x << (d + 1)) + Q) // (2 * Q) % (1 << d)


def decompress(y: int, d: int) -> int:
    """round(q * y / 2^d), ties rounded up."""
    if not 1 <= d < 12:
        raise ValueError(f"decompress width {d} outside [1, 12)")
    if not 0 <= y < (1 << d):
        raise ValueError(f"decompress input {y} outside [0, 2^{d})")
    return ((Q * y << 1) + (1 << d)) >> (d + 1)


def compress_array(x: np.ndarray, d: int) -> np.ndarray:
    if not 1 <= d < 12:
        raise ValueError(f"compress width {d} outside [1, 12)")
    x = np.asarray(x, dtype=np.int64)
    if x.min(initial=0) < 0 or x.max(initial=0) >= Q:
        raise ValueError("compress input outside [0, q)")
    return ((x << (d + 1)) + Q) // (2 * Q) % (1 << d)


def decompress_array(y: np.ndarray, d: int) -> np.ndarray:
    if not 1 <= d < 12:
        raise ValueError(f"decompress width {d} outside [1, 12)")
    y = np.asarray(y, dtype=np.int64)
    if y.min(initial=0) < 0 or y.max(initial=0) >= (1 << d):
        raise ValueError(f"decompress input outside [0, 2^{d})")
    return ((Q * y << 1) + (1 << d)) >> (d + 1)


# ---------------------------------------------------------------------------
# samplers


def cbd_sample(eta: int, stream) -> RingElement:
    """Centered binomial polynomial: each coefficient is (sum of eta bits)
    minus (sum of eta bits), bits consumed little-endian from the stream."""
    if eta not in (2, 3):
        raise ValueError(f"unsupported eta={eta}")
    raw = stream.read(64 * eta)  # 2*eta bits per coefficient
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little").astype(np.int64)
    grouped = bits.reshape(N, 2 * eta)
    a = grouped[:, :eta].sum(axis=1)
    b = grouped[:, eta:].sum(axis=1)
    return RingElement(a - b)


def sample_noise_vector(stream, eta: int, k: int) -> RingVector:
    return RingVector([cbd_sample(eta, stream) for _ in range(k)])


def _sample_uniform_poly(stream) -> RingElement:
    """Rejection-sample 256 coefficients uniform on [0, q) from 12-bit words."""
    kept = []
    need = N
    while need > 0:
        raw = np.frombuffer(stream.read(504), dtype=np.uint8).astype(np.int64)
        triples = raw.reshape(-1, 3)
        d1 = triples[:, 0] | ((triples[:, 1] & 0x0F) << 8)
        d2 = (triples[:, 1] >> 4) | (triples[:, 2] << 4)
        cand = np.column_stack([d1, d2]).ravel()
        cand = cand[cand < Q]
        kept.append(cand[:need])
        need -= len(kept[-1])
    return RingElement(np.concatenate(kept))


@functools.lru_cache(maxsize=32)
def _gen_matrix_cached(seed: bytes, k: int) -> RingMatrix:
    rows = []
    for r in range(k):
        row = []
        for c in range(k):
            stream = XofStream(seed, label=b"A" + bytes([r, c]), algo="shake_128")
            row.append(_sample_uniform_poly(stream))
        rows.append(row)
    return RingMatrix(rows)


def gen_matrix(seed: bytes, params: ParamSet) -> RingMatrix:
    """Deterministic pseudo-uniform k x k matrix, one SHAKE-128 stream per
    (row, column) entry.  Pure in (seed, params); recent expansions are
    memoised since a session touches the same matrix several times."""
    return _gen_matrix_cached(check_seed(seed), params.k)


# ---------------------------------------------------------------------------
# 12-bit coefficient packing (wire format: pairs of coefficients in 3 bytes,
# low byte first)


def pack12(coeffs: np.ndarray) -> bytes:
    c = np.asarray(coeffs, dtype=np.int64)
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
