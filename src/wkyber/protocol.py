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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (XofStream, centered, check_canonical, check_seed, compress,
                   encrypt_products, gen_matrix, inner_product, matvec_mul,
                   pack12, sample_noise_vector, unpack12)
from .modem import ChannelPlan, NoiseSource
from .params import N, Q, ParamSet
from .pke import Message, PublicKey, SecretKey, keygen, message_to_ring
from .transport import Frame, receive_blocks, receive_coeffs, send_blocks, send_coeffs


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
    a = gen_matrix(seed_a, params)
    s = sample_noise_vector(rng, params.eta1, params.k)
    pk = PublicKey(seed_a, matvec_mul(a, s))
    pk._a = a
    return pk, SecretKey(s)


def _sample_sprime(coins: bytes, params: ParamSet) -> np.ndarray:
    check_seed(coins)
    return sample_noise_vector(XofStream(coins, b"sp"), params.eta1, params.k)


def wk_encrypt_with_sprime(pk: PublicKey, m: Message, sp: np.ndarray,
                           params: ParamSet) -> WkCiphertext:
    uv = encrypt_products(pk.matrix(params), pk.b, sp)
    uv[-1] = (uv[-1] + message_to_ring(m)) % Q
    return WkCiphertext(uv)


def wk_encrypt(pk: PublicKey, m: Message, coins: bytes,
               params: ParamSet) -> WkCiphertext:
    """u = A^T s', v = b^T s' + mhat; no e' or e'' is ever sampled."""
    return wk_encrypt_with_sprime(pk, m, _sample_sprime(coins, params), params)


def wk_decrypt(sk: SecretKey, c: WkCiphertext) -> Message:
    """Per-coefficient compress(v - s^T u, 1)."""
    return Message(compress((c.v - inner_product(sk.s, c.u)) % Q, 1))


def wk_decryption_noise(sk: SecretKey, c: WkCiphertext, m: Message) -> np.ndarray:
    """Centered per-coefficient noise v - s^T u - mhat (diagnostics)."""
    return centered(c.v - inner_product(sk.s, c.u) - message_to_ring(m))


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
    proj = PublicKey(pk.seed, (pk.b & ~np.int64(3)) % (Q - 1))
    proj._a = pk._a  # same seed, same matrix
    return proj


def _hash(label: bytes, data: bytes, outlen: int = 32) -> bytes:
    return XofStream(data, label).read(outlen)


def _derive_key_coins(m: Message, pk_proj: PublicKey):
    pk_hash = _hash(b"pk", pk_proj.to_bytes())
    kd = _hash(b"enc", m.to_bytes() + pk_hash, 64)
    return kd[:32], kd[32:]


def kem_v1_encaps(pk: PublicKey, rng, params: ParamSet):
    """Returns (ciphertext to transmit, shared secret).

    Deterministic given (pk, message): key and coins derive from the message
    and the projected public key; the secret also binds the clean ciphertext.
    """
    m = Message.random(rng)
    return _encaps_with_message(pk, m, params)


def _encaps_with_message(pk: PublicKey, m: Message, params: ParamSet):
    pk_proj = _project_pk(pk)
    k_bytes, coins = _derive_key_coins(m, pk_proj)
    c = wk_encrypt(pk_proj, m, coins, params)
    secret = _hash(b"kdf", k_bytes + _hash(b"ct", c.to_bytes()))
    return c, secret


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
    exactly; exact comparison rejects nearly every honest session because
    the channel legitimately perturbs the exposed bits.
    """
    m2 = wk_decrypt(ksk.sk, c_received)
    pk_proj = _project_pk(pk)
    k_bytes, coins = _derive_key_coins(m2, pk_proj)
    c2 = wk_encrypt(pk_proj, m2, coins, params)
    if _coeffs_match(c2.coeffs, c_received.coeffs, policy):
        return _hash(b"kdf", k_bytes + _hash(b"ct", c2.to_bytes()))
    return _hash(b"rej", ksk.z + _hash(b"ct", c_received.to_bytes()))


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
    return _hash(b"session" + label, master.to_bytes(width, "little"))


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


def _receive_pk(seed_blocks, frame: Frame, params: ParamSet):
    words, seed_failed = receive_blocks(seed_blocks, 26)
    shifts = np.arange(9, -1, -1)
    bits = ((words[:, None] >> shifts) & 1).ravel()[:256].astype(np.uint8)
    seed = np.packbits(bits, bitorder="little").tobytes()
    coeffs, b_fail = receive_coeffs(frame, params.k * N)
    pk = PublicKey(seed, coeffs.reshape(params.k, N))
    return pk, int(seed_failed.sum()) + b_fail


def _receive_ct(frame: Frame, params: ParamSet):
    coeffs, failures = receive_coeffs(frame, (params.k + 1) * N)
    return WkCiphertext(coeffs.reshape(-1, N)), failures


def run_session(version: str, params: ParamSet, plans, seed: int,
                policy: SnrPolicy | None = None,
                fo_policy: str = "msb-only",
                collect_offsets: bool = False) -> SessionTranscript:
    """One full exchange: keygen, key transport, encrypt/encaps, ciphertext
    transport, decrypt/decaps.

    plans is the (public key, ciphertext) ChannelPlan pair.  Policy
    violations are recorded as warnings; the run proceeds regardless.
    V2 keys are ephemeral by construction: every session generates its own.
    """
    if version not in ("v1", "v2"):
        raise ValueError(f"version must be 'v1' or 'v2', got {version!r}")
    pk_plan, ct_plan = plans
    policy = policy or SnrPolicy()
    warnings = tuple(policy.violations(ct_plan, "ciphertext")
                     + (policy.violations(pk_plan, "public key")
                        if version == "v2" else []))

    key_rng = XofStream(_derive_seed(seed, b"key"), b"rng")
    msg_rng = XofStream(_derive_seed(seed, b"msg"), b"rng")
    noise_a = NoiseSource(int.from_bytes(_derive_seed(seed, b"ch-a")[:8], "little"))
    noise_b = NoiseSource(int.from_bytes(_derive_seed(seed, b"ch-b")[:8], "little"))
    seed_a = key_rng.read(32)

    if version == "v1":
        pk, ksk = kem_v1_keygen(seed_a, key_rng, params)
        seed_blocks, pk_frame = _send_pk(pk, pk_plan, noise_a, params)
        pk_rx, pk_fail = _receive_pk(seed_blocks, pk_frame, params)
        c_clean, secret_b = kem_v1_encaps(pk_rx, msg_rng, params)
        ct_frame = send_coeffs(c_clean.coeffs, ct_plan, noise_b)
        c_rx, ct_fail = _receive_ct(ct_frame, params)
        secret_a = kem_v1_decaps(ksk, pk, c_rx, params, policy=fo_policy)
        outcome = secret_a == secret_b
    else:
        pk, sk = v2_keygen(seed_a, key_rng, params)
        seed_blocks, pk_frame = _send_pk(pk, pk_plan, noise_a, params)
        pk_rx, pk_fail = _receive_pk(seed_blocks, pk_frame, params)
        m = Message.random(msg_rng)
        c_clean = wk_encrypt(pk_rx, m, msg_rng.read(32), params)
        ct_frame = send_coeffs(c_clean.coeffs, ct_plan, noise_b)
        c_rx, ct_fail = _receive_ct(ct_frame, params)
        outcome = wk_decrypt(sk, c_rx) == m

    offsets = None
    if collect_offsets:
        offsets = centered(c_rx.coeffs - c_clean.coeffs).ravel()
    return SessionTranscript(version=version, k=params.k, pk_plan=pk_plan,
                             ct_plan=ct_plan, outcome=outcome,
                             bch_failures_pk=pk_fail, bch_failures_ct=ct_fail,
                             policy_warnings=warnings,
                             ct_error_offsets=offsets)
