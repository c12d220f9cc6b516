"""Baseline module-LWE public-key encryption (keygen / encrypt / decrypt).

This is the reference scheme with binomially sampled errors and compressed
ciphertexts; the wireless variants in :mod:`wkyber.protocol` reuse its key
generation and drop the sampled ciphertext noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (cbd_vectors, check_canonical, check_seed, compress,
                   decompress, encrypt_products, gen_matrices, inner_product,
                   matvec_mul, noise_vectors, pack12, unpack12)
from .params import N, Q, ParamSet


class Message:
    """A 256-bit plaintext."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.int64)
        if arr.shape != (N,) or not ((arr == 0) | (arr == 1)).all():
            raise ValueError("message must be 256 binary values")
        self.bits = arr

    @classmethod
    def random(cls, stream) -> "Message":
        raw = np.frombuffer(stream.read(N // 8), dtype=np.uint8)
        return cls(np.unpackbits(raw, bitorder="little"))

    def to_bytes(self) -> bytes:
        return np.packbits(self.bits.astype(np.uint8), bitorder="little").tobytes()

    def __eq__(self, other):
        return isinstance(other, Message) and np.array_equal(self.bits, other.bits)

    def __repr__(self):
        return f"Message({self.to_bytes().hex()})"


class PublicKey:
    """(seed for the matrix A, (k, 256) vector b); gen_matrices caches A."""

    __slots__ = ("seed", "b")

    def __init__(self, seed: bytes, b: np.ndarray):
        self.seed = check_seed(seed)
        self.b = b

    def to_bytes(self) -> bytes:
        return self.seed + pack12(self.b)

    @classmethod
    def from_bytes(cls, data: bytes, params: ParamSet) -> "PublicKey":
        seed, packed = data[:32], data[32:]
        b = check_canonical(unpack12(packed, params.k * N)).reshape(params.k, N)
        return cls(seed, b)

    def __eq__(self, other):
        return (isinstance(other, PublicKey) and self.seed == other.seed
                and np.array_equal(self.b, other.b))


@dataclass
class SecretKey:
    s: np.ndarray  # (k, 256)

    def to_bytes(self) -> bytes:
        return pack12(self.s)

    @classmethod
    def from_bytes(cls, data: bytes, params: ParamSet) -> "SecretKey":
        s = check_canonical(unpack12(data, params.k * N)).reshape(params.k, N)
        return cls(s)

    def __eq__(self, other):
        return isinstance(other, SecretKey) and np.array_equal(self.s, other.s)


@dataclass
class CompressedCiphertext:
    """Ciphertext with d_u / d_v bit coefficients (baseline scheme only)."""

    u_c: np.ndarray  # (k, 256) integers in [0, 2^du)
    v_c: np.ndarray  # 256 integers in [0, 2^dv)

    def __eq__(self, other):
        return (isinstance(other, CompressedCiphertext)
                and np.array_equal(self.u_c, other.u_c)
                and np.array_equal(self.v_c, other.v_c))


def keygen(seed_a: bytes, rng, params: ParamSet):
    """b = A s + e with s, e drawn from the eta1 binomial; pk carries the seed."""
    (pk,), s = keygen_batch([seed_a], [rng], params)
    return pk, SecretKey(s[0])


def keygen_batch(seeds_a, rngs, params: ParamSet, with_error: bool = True):
    """B key pairs at once: b = A s + e, or b = A s without the error.  One
    read of each rng supplies s and then e; the ring work runs on (B, k, 256)
    arrays.  Returns (public keys, (B, k, 256) secrets)."""
    k, eta = params.k, params.eta1
    count = 2 if with_error else 1
    noise = cbd_vectors(b"".join(rng.read(64 * eta * k * count)
                                 for rng in rngs), eta, count * k)
    s = noise[:, :k]
    b = matvec_mul(gen_matrices(seeds_a, params), s)
    if with_error:
        b = (b + noise[:, k:]) % Q
    return [PublicKey(seed, b_i) for seed, b_i in zip(seeds_a, b)], s


def message_to_ring(m: Message) -> np.ndarray:
    """Per-bit decompress(bit, 1): 0 -> 0, 1 -> 1665."""
    return decompress(m.bits, 1)


def _expand_coins(coins: bytes, params: ParamSet):
    return (noise_vectors([coins], b"sp", params.eta1, params.k)[0],
            noise_vectors([coins], b"ep", params.eta2, params.k)[0],
            noise_vectors([coins], b"epp", params.eta2, 1)[0, 0])


def encrypt_with_noise(pk: PublicKey, m: Message, sp: np.ndarray,
                       ep: np.ndarray, epp: np.ndarray,
                       params: ParamSet) -> CompressedCiphertext:
    """Encryption core with the noise terms supplied by the caller."""
    uv = encrypt_products(gen_matrices([pk.seed], params)[0], pk.b, sp)
    u = (uv[:-1] + ep) % Q
    v = (uv[-1] + epp + message_to_ring(m)) % Q
    return CompressedCiphertext(u_c=compress(u, params.du),
                                v_c=compress(v, params.dv))


def encrypt(pk: PublicKey, m: Message, coins: bytes,
            params: ParamSet) -> CompressedCiphertext:
    """u = A^T s' + e', v = b^T s' + e'' + mhat, both compressed.

    Deterministic: s', e', e'' are expanded from the 32-byte coins.
    """
    sp, ep, epp = _expand_coins(coins, params)
    return encrypt_with_noise(pk, m, sp, ep, epp, params)


def decrypt(sk: SecretKey, ct: CompressedCiphertext, params: ParamSet) -> Message:
    """Recover each bit as compress(v - s^T u, 1) on the decompressed
    ciphertext."""
    u = decompress(ct.u_c, params.du)
    v = decompress(ct.v_c, params.dv)
    return Message(compress((v - inner_product(sk.s, u)) % Q, 1))
