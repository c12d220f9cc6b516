"""Module-LWE public-key encryption: one batched core for all three schemes.

The wireless encryption wk_encrypt / wk_decrypt (V1 and V2, see
:mod:`wkyber.protocol`) sends u = A^T s', v = b^T s' + mhat uncompressed and
lets the channel supply the noise.  The baseline scheme is the same core
plus binomially sampled e' and e'' and d_u / d_v compression; all three
share keygen, whose with_error=False form is V2's b = A s.  The three ring
products are core.mul_sum calls on core.ntt rows: A s at key generation,
A^T and b^T stacked against s' at encryption, and s^T u at decryption.

Every function takes B sessions at once as plain arrays: public keys are
pairs (seeds, b) of B 32-byte seeds for the matrices A (gen_matrices caches
them) and one (B, k, 256) array, secrets (B, k, 256), message bits
(B, 256), uncompressed ciphertexts (B, k + 1, 256) coefficients.  Session
randomness is bytes.  Inputs that differ in count (core.check_sessions) or a
string of the wrong length (core.check_bytes: keygen_bytes for keygen, 32 for
message bits and coins) raise ValueError rather than broadcast.  On the wire
each session's secret or ciphertext is pack12 of its array and its key is
seed + pack12(b); pack12 is the KEM's hash input, and the tests hold its
decoder (sessions carry arrays, never bytes).  wk_encrypt and wk_decrypt
take received 12-bit words (as transport.send_key and send_coeffs return
them; ValueError outside [0, 4096)) as b and ciphertext, and reduce them
mod q for mul_sum.
"""

from __future__ import annotations

import numpy as np

from .core import (cbd_vectors, check_bytes, check_range, check_sessions,
                   compress, decompress, gen_matrices, mul_sum, noise_vectors,
                   ntt)
from .params import N, Q, ParamSet


def random_bits(msgs) -> np.ndarray:
    """(B, 256) message bits from each session's 32 bytes, little-endian."""
    raw = np.frombuffer(b"".join(check_bytes(msgs, N // 8)), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").reshape(-1, N).astype(np.int64)


def keygen_bytes(params: ParamSet, with_error: bool = True) -> int:
    """Noise bytes keygen reads per session: the k polynomials of s, then
    those of e unless with_error is False, 64 eta1 bytes each."""
    return 64 * params.eta1 * params.k * (2 if with_error else 1)


def keygen(seeds_a, noise, params: ParamSet, with_error: bool = True):
    """b = A s + e, or b = A s without the error, with s and e drawn from
    the eta1 binomial by each session's keygen_bytes noise bytes.  Returns
    (pks, s) with pks = (seeds_a, b)."""
    check_sessions(seeds_a, noise)
    noise = check_bytes(noise, keygen_bytes(params, with_error))
    k = params.k
    se = cbd_vectors(b"".join(noise), params.eta1, 2 * k if with_error else k)
    s = se[:, :k]
    b = mul_sum(gen_matrices(seeds_a, params), s)
    if with_error:
        b = (b + se[:, k:]) % Q
    return (seeds_a, b), s


def wk_encrypt(pks, bits: np.ndarray, coins, params: ParamSet) -> np.ndarray:
    """u = A^T s', v = b^T s' + mhat, with s' expanded from each session's
    32-byte coins; no e' or e'' is ever sampled."""
    seeds, b = pks
    check_sessions(seeds, b, bits, coins)
    b = check_range(b, 1 << 12, "key words") % Q
    sp = noise_vectors(coins, b"sp", params.eta1, params.k)
    rows = np.concatenate((gen_matrices(seeds, params).swapaxes(-3, -2),
                           ntt(b)[..., None, :, :]), axis=-3)
    uv = mul_sum(rows, sp)
    uv[:, -1] = (uv[:, -1] + decompress(bits, 1)) % Q
    return uv


def wk_decrypt(s: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-coefficient compress(v - s^T u, 1): the message bits."""
    check_sessions(s, coeffs)
    coeffs = check_range(coeffs, 1 << 12, "ciphertext words") % Q
    u, v = coeffs[..., :-1, :], coeffs[..., -1, :]
    su = mul_sum(ntt(s)[..., None, :, :], u)[..., 0, :]
    return compress((v - su) % Q, 1)


def encrypt(pks, bits: np.ndarray, coins, params: ParamSet):
    """The baseline: wk_encrypt plus e' and e'' expanded from the same coins,
    then compressed.  Returns (u_c, v_c): (B, k, 256) d_u-bit and (B, 256)
    d_v-bit coefficients."""
    uv = wk_encrypt(pks, bits, coins, params)
    uv[:, :-1] += noise_vectors(coins, b"ep", params.eta2, params.k)
    uv[:, -1] += noise_vectors(coins, b"epp", params.eta2, 1)[:, 0]
    uv %= Q
    return compress(uv[:, :-1], params.du), compress(uv[:, -1], params.dv)


def decrypt(s: np.ndarray, u_c: np.ndarray, v_c: np.ndarray,
            params: ParamSet) -> np.ndarray:
    """wk_decrypt of the decompressed ciphertext: (B, 256) message bits."""
    return wk_decrypt(s, np.concatenate((decompress(u_c, params.du),
                                         decompress(v_c, params.dv)[:, None]),
                                        axis=1))
