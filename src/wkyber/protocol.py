"""WKyber V1/V2 public-key encryption and the V1 key encapsulation mechanism.

Both versions drop the sampled ciphertext noise of the baseline scheme and
let the channel supply it: the uncompressed ciphertext (u = A^T s',
v = b^T s' + mhat) travels with its two low bits exposed at low SNR.  V1
keeps the baseline key generation (b = A s + e, public key sent with both
paths well protected) and therefore supports the re-encrypting KEM; V2 also
drops e (b = A s) and lets the public-key transmission inject it, which
rules out re-encryption, so V2 is used as a PKE with ephemeral keys.

KEM robustness detail: the public key's two low bits per coefficient are
not BCH-protected, so rare channel flips would leave encapsulator and
decapsulator with different views of b and make the re-encryption check
fail spuriously.  The KEM therefore binds its hash chain and re-encryption
to the protected projection of the key (w2 bits zeroed, q - 1 = 4 * 832
taken as 0 because its w2 bits can wrap it to 0..2); the low bits still
travel and still feed decryption, but the check no longer depends on them.
Like the relaxed ciphertext comparison, the security of ignoring exposed
bits in the check is not analysed here.

run_sessions runs SESSION_BATCH sessions at a time.  Each keeps its own
byte streams, noise sources and flip draws, in the order of a lone session,
and its own KEM hashes; the ring work is stacked on (B, k, 256) arrays and
each channel leg has one block decode for all B.  Stacked arithmetic is
exact and blocks decode alone, so no result depends on B or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (XofStream, centered, check_canonical, compress, decompress,
                   encrypt_products, gen_matrices, inner_product,
                   noise_vectors, pack12, squeeze, unpack12)
from .modem import ChannelPlan, NoiseSource
from .params import N, Q, ParamSet
from .pke import Message, PublicKey, SecretKey, keygen, keygen_batch
from .transport import join_coeffs, receive_blocks, send_blocks, send_coeffs

# sessions stacked in one array pass of run_sessions; transcripts do not
# depend on it, only memory and per-call overhead do
SESSION_BATCH = 16


# ---------------------------------------------------------------------------
# ciphertext


@dataclass
class WkCiphertext:
    """Uncompressed ciphertext: a (k + 1, 256) array holding u's k rows then
    v, full 12-bit coefficients, never compressed."""

    coeffs: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.coeffs[:-1]

    @property
    def v(self) -> np.ndarray:
        return self.coeffs[-1]

    def to_bytes(self) -> bytes:
        return pack12(self.coeffs)

    @classmethod
    def from_bytes(cls, data: bytes, params: ParamSet) -> "WkCiphertext":
        count = (params.k + 1) * N
        return cls(check_canonical(unpack12(data, count)).reshape(-1, N))

    def __eq__(self, other):
        return (isinstance(other, WkCiphertext)
                and np.array_equal(self.coeffs, other.coeffs))


# ---------------------------------------------------------------------------
# SNR policy


@dataclass(frozen=True)
class SnrPolicy:
    """Operating window: protected path at >= 10 dB keeps decode failures
    negligible, exposed path at <= -5 dB keeps the injected error wide
    enough (its deviation stays above the baseline binomial's)."""

    min_msb_db: float = 10.0
    max_lsb_db: float = -5.0

    def violations(self, plan: ChannelPlan, label: str) -> list:
        out = []
        if not plan.snr_msb_db >= self.min_msb_db:
            out.append(f"{label}: MSB-path SNR {plan.snr_msb_db:g} dB below "
                       f"{self.min_msb_db:g} dB; decode failures not negligible")
        if not plan.snr_lsb_db <= self.max_lsb_db:
            out.append(f"{label}: LSB-path SNR {plan.snr_lsb_db:g} dB above "
                       f"{self.max_lsb_db:g} dB; injected error too narrow")
        return out


# ---------------------------------------------------------------------------
# V1 / V2 PKE


def v2_keygen(seed_a: bytes, rng, params: ParamSet):
    """b = A s with no sampled error; the channel adds it in transit."""
    (pk,), s = keygen_batch([seed_a], [rng], params, with_error=False)
    return pk, SecretKey(s[0])


def _encrypt(pks, bits: np.ndarray, sp: np.ndarray,
             params: ParamSet) -> np.ndarray:
    """u = A^T s', v = b^T s' + mhat for B keys, (B, 256) message bits and
    (B, k, 256) s', as (B, k + 1, 256) coefficients."""
    a_hat = gen_matrices([pk.seed for pk in pks], params)
    uv = encrypt_products(a_hat, np.stack([pk.b for pk in pks]), sp)
    uv[:, -1] = (uv[:, -1] + decompress(bits, 1)) % Q
    return uv


def wk_encrypt(pk: PublicKey, m: Message, coins: bytes,
               params: ParamSet) -> WkCiphertext:
    """u = A^T s', v = b^T s' + mhat; no e' or e'' is ever sampled."""
    sp = noise_vectors([coins], b"sp", params.eta1, params.k)
    return WkCiphertext(_encrypt([pk], m.bits[None], sp, params)[0])


def _decrypt_bits(s: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Per-coefficient compress(v - s^T u, 1), leading axes batched."""
    u, v = coeffs[..., :-1, :], coeffs[..., -1, :]
    return compress((v - inner_product(s, u)) % Q, 1)


def wk_decrypt(sk: SecretKey, c: WkCiphertext) -> Message:
    """Per-coefficient compress(v - s^T u, 1)."""
    return Message(_decrypt_bits(sk.s, c.coeffs))


# ---------------------------------------------------------------------------
# V1 KEM (re-encrypting transform with implicit rejection)


@dataclass
class KemSecretKey:
    sk: SecretKey
    z: bytes  # implicit-rejection secret


def kem_v1_keygen(seed_a: bytes, rng, params: ParamSet):
    """The baseline key generation (binomial e retained) plus the
    implicit-rejection secret."""
    pk, sk = keygen(seed_a, rng, params)
    return pk, KemSecretKey(sk=sk, z=rng.read(32))


def _project_pk(pk: PublicKey) -> PublicKey:
    """Zero the exposed w2 bits of b: the channel-robust view of the key.

    A stored q - 1 = 4 * 832 whose w2 bits rise arrives as 0..2 (the wrap
    `_coeffs_match` allows for ciphertexts), so 4 * 832 joins the class of 0.
    """
    return PublicKey(pk.seed, (pk.b & ~np.int64(3)) % (Q - 1))


def _derive_key_coins(m: Message, pk_proj: PublicKey):
    pk_hash = squeeze(pk_proj.to_bytes(), b"pk", 32)
    kd = squeeze(m.to_bytes() + pk_hash, b"enc", 64)
    return kd[:32], kd[32:]


def kem_v1_encaps(pk: PublicKey, rng, params: ParamSet):
    """Returns (ciphertext to transmit, shared secret).

    Deterministic given (pk, message): key and coins derive from the message
    and the projected public key; the secret also binds the clean ciphertext.
    """
    (c,), (secret,) = _encaps([pk], [Message.random(rng)], params)
    return WkCiphertext(c), secret


def _encaps(pks, messages, params: ParamSet):
    """kem_v1_encaps of B messages to B keys: ((B, k + 1, 256) ciphertext
    coefficients, shared secrets)."""
    projected = [_project_pk(pk) for pk in pks]
    keys, coins = zip(*(_derive_key_coins(m, pk)
                        for m, pk in zip(messages, projected)))
    bits = np.stack([m.bits for m in messages])
    sp = noise_vectors(coins, b"sp", params.eta1, params.k)
    c = _encrypt(projected, bits, sp, params)
    return c, [squeeze(key + squeeze(pack12(c_i), b"ct", 32), b"kdf", 32)
               for key, c_i in zip(keys, c)]


def _coeffs_match(expected: np.ndarray, received: np.ndarray,
                  policy: str) -> bool:
    if policy == "exact":
        return np.array_equal(expected, received)
    if policy == "msb-only":
        # the protected words w10 = c >> 2 must agree exactly.  One wrap is
        # honest: q = 4 * 832 + 1, so a stored q - 1 = 4 * 832 whose w2 bits
        # rise comes back as 4 * 832 + 1..3 = 0..2 mod q
        same = (expected >> 2) == (received >> 2)
        wrapped = (expected == Q - 1) & (received <= 2)
        return bool((same | wrapped).all())
    raise ValueError(f"unknown comparison policy {policy!r}")


def kem_v1_decaps(ksk: KemSecretKey, pk: PublicKey, c_received: WkCiphertext,
                  params: ParamSet, policy: str = "msb-only") -> bytes:
    """Decrypt, re-encrypt, compare; mismatches yield the implicit-rejection
    secret rather than an error.

    The default msb-only policy compares the BCH-protected w10 words
    exactly, and accepts one wrap besides: a coefficient sent as q - 1 and
    received as 0..2.  Exact comparison rejects nearly every honest session
    because the channel legitimately perturbs the exposed bits.
    """
    return _decaps(ksk.sk.s[None], [ksk.z], [pk], c_received.coeffs[None],
                   params, policy)[0]


def _decaps(s: np.ndarray, zs, pks, received: np.ndarray, params: ParamSet,
            policy: str) -> list:
    """B decapsulations of (B, k + 1, 256) received coefficients under
    (B, k, 256) secrets s: decrypt, encapsulate the result again as the
    sender did, compare."""
    messages = [Message(bits) for bits in _decrypt_bits(s, received)]
    expected, secrets = _encaps(pks, messages, params)
    return [secret if _coeffs_match(c2, c_rx, policy)
            else squeeze(z + squeeze(pack12(c_rx), b"ct", 32), b"rej", 32)
            for secret, c2, c_rx, z in zip(secrets, expected, received, zs)]


# ---------------------------------------------------------------------------
# full sessions over the simulated channel


@dataclass
class SessionTranscript:
    version: str
    k: int
    pk_plan: ChannelPlan
    ct_plan: ChannelPlan
    outcome: bool
    bch_failures_pk: int
    bch_failures_ct: int
    policy_warnings: tuple = ()
    ct_error_offsets: np.ndarray | None = None

    @property
    def bch_failures(self) -> int:
        return self.bch_failures_pk + self.bch_failures_ct


def _derive_seed(master: int, label: bytes) -> bytes:
    """Seeds below 2^64 hash as 8 bytes; larger ones as their minimal
    little-endian encoding, which no 8-byte seed shares."""
    if master < 0:
        raise ValueError(f"session seed {master} is negative")
    width = max(8, (master.bit_length() + 7) // 8)
    return squeeze(master.to_bytes(width, "little"), b"session" + label, 32)


def _send_pk(pk: PublicKey, plan: ChannelPlan, noise: NoiseSource, params: ParamSet):
    """Seed bytes ride the protected path (26 blocks of 10 bits), then the
    b coefficients take the standard 17-symbol form.  Returns the received
    seed blocks and the frame of b."""
    seed_bits = np.unpackbits(np.frombuffer(pk.seed, dtype=np.uint8),
                              bitorder="little").astype(np.int64)
    padded = np.concatenate([seed_bits, np.zeros(4, dtype=np.int64)])
    weights = (1 << np.arange(9, -1, -1)).astype(np.int64)
    words = padded.reshape(26, 10) @ weights
    seed_blocks = send_blocks(words, plan.snr_msb_db, noise)
    frame = send_coeffs(pk.b, plan, noise)
    return seed_blocks, frame


def _decode_leg(segments, sessions: int):
    """One block decode of a leg's received words, given session after
    session: ((B, words per session) decoded words, failures per session)."""
    words = np.concatenate(segments)
    w10, failed = receive_blocks(words, len(words))
    return w10.reshape(sessions, -1), failed.reshape(sessions, -1).sum(axis=1)


def _receive_pks(sent, params: ParamSet):
    """(B keys, failures per key) from B (seed blocks, frame of b) pairs."""
    w10, failures = _decode_leg([w for blocks, frame in sent
                                 for w in (blocks, frame.msb)], len(sent))
    bits = (w10[:, :26, None] >> np.arange(9, -1, -1)) & 1
    seeds = np.packbits(bits.reshape(len(sent), -1)[:, :256].astype(np.uint8),
                        axis=1, bitorder="little")
    lsb = np.stack([frame.lsb for _, frame in sent])
    b = join_coeffs(w10[:, 26:], lsb).reshape(len(sent), params.k, N)
    return [PublicKey(seed.tobytes(), b_i) for seed, b_i in zip(seeds, b)], failures


def _receive_cts(frames, params: ParamSet):
    """((B, k + 1, 256) coefficients, failures per frame) from B frames."""
    w10, failures = _decode_leg([frame.msb for frame in frames], len(frames))
    lsb = np.stack([frame.lsb for frame in frames])
    return join_coeffs(w10, lsb).reshape(len(frames), -1, N), failures


def _noise_source(seed: int, label: bytes) -> NoiseSource:
    return NoiseSource(int.from_bytes(_derive_seed(seed, label)[:8], "little"))


def run_sessions(version: str, params: ParamSet, plans, seeds, *,
                 fo_policy: str = "msb-only",
                 collect_offsets: bool = False) -> list:
    """Full exchanges, one transcript per seed: keygen, key transport,
    encrypt/encaps, ciphertext transport, decrypt/decaps.

    plans is the (public key, ciphertext) ChannelPlan pair.  Policy
    violations are recorded as warnings; the run proceeds regardless.
    V2 keys are ephemeral by construction: every session generates its own.
    Sessions run SESSION_BATCH at a time; a transcript depends only on its
    own seed (see the module docstring).
    """
    if version not in ("v1", "v2"):
        raise ValueError(f"version must be 'v1' or 'v2', got {version!r}")
    pk_plan, ct_plan = plans
    policy = SnrPolicy()
    warnings = tuple(policy.violations(ct_plan, "ciphertext")
                     + (policy.violations(pk_plan, "public key")
                        if version == "v2" else []))
    return [tr for at in range(0, len(seeds), SESSION_BATCH)
            for tr in _run_batch(version, params, plans,
                                 seeds[at:at + SESSION_BATCH], fo_policy,
                                 collect_offsets, warnings)]


def _run_batch(version, params, plans, seeds, fo_policy, collect_offsets,
               warnings) -> list:
    pk_plan, ct_plan = plans
    # every session draws from its own streams, in the order of one session
    key_rngs = [XofStream(_derive_seed(s, b"key"), b"rng") for s in seeds]
    msg_rngs = [XofStream(_derive_seed(s, b"msg"), b"rng") for s in seeds]
    noise_a = [_noise_source(s, b"ch-a") for s in seeds]
    noise_b = [_noise_source(s, b"ch-b") for s in seeds]
    seeds_a = [rng.read(32) for rng in key_rngs]
    pks, sks = keygen_batch(seeds_a, key_rngs, params,
                            with_error=version == "v1")
    pks_rx, pk_fail = _receive_pks([_send_pk(pk, pk_plan, noise, params)
                                    for pk, noise in zip(pks, noise_a)], params)
    messages = [Message.random(rng) for rng in msg_rngs]
    if version == "v1":
        zs = [rng.read(32) for rng in key_rngs]
        c_clean, secrets_b = _encaps(pks_rx, messages, params)
    else:
        bits = np.stack([m.bits for m in messages])
        sp = noise_vectors([rng.read(32) for rng in msg_rngs], b"sp",
                           params.eta1, params.k)
        c_clean = _encrypt(pks_rx, bits, sp, params)
    c_rx, ct_fail = _receive_cts([send_coeffs(c, ct_plan, noise)
                                  for c, noise in zip(c_clean, noise_b)], params)
    if version == "v1":
        secrets_a = _decaps(sks, zs, pks, c_rx, params, fo_policy)
        outcomes = [a == b for a, b in zip(secrets_a, secrets_b)]
    else:
        outcomes = (_decrypt_bits(sks, c_rx) == bits).all(axis=1)
    offsets = (centered(c_rx - c_clean).reshape(len(seeds), -1)
               if collect_offsets else [None] * len(seeds))
    return [SessionTranscript(version=version, k=params.k, pk_plan=pk_plan,
                              ct_plan=ct_plan, outcome=bool(ok),
                              bch_failures_pk=int(pk_f),
                              bch_failures_ct=int(ct_f),
                              policy_warnings=warnings, ct_error_offsets=off)
            for ok, pk_f, ct_f, off in zip(outcomes, pk_fail, ct_fail, offsets)]
