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

Every V1/V2 function takes B sessions at once (one session is B = 1), with
keys, secrets and ciphertexts in the array forms of :mod:`wkyber.pke`, and
run_sessions calls them on SESSION_BATCH sessions at a time.  Each session
keeps its own byte streams, noise sources and flip draws, in the order of a
lone session, and its own KEM hashes; the ring work is stacked on
(B, k, 256) arrays and each channel leg has one block decode for all B.
Stacked arithmetic is exact and blocks decode alone, so no result depends
on B or worker count.  A run of S sessions comes back as one SessionRun:
the run's version, rank, plans and warnings once, and (S,) arrays of
outcomes and per-leg BCH failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import XofStream, centered, pack12, squeeze
from .modem import ChannelPlan, NoiseSource
from .params import N, Q, ParamSet
from .pke import keygen, random_bits, wk_decrypt, wk_encrypt
from .transport import join_coeffs, receive_blocks, send_blocks, send_coeffs

# sessions stacked in one array pass of run_sessions; results do not
# depend on it, only memory and per-call overhead do
SESSION_BATCH = 16


# ---------------------------------------------------------------------------
# SNR policy

# operating window: a protected path at >= 10 dB keeps decode failures
# negligible, an exposed path at <= -5 dB keeps the injected error wide
# enough (its deviation stays above the baseline binomial's)
MIN_MSB_DB = 10.0
MAX_LSB_DB = -5.0


def snr_warnings(plan: ChannelPlan, label: str) -> list:
    """The ways plan leaves the operating window, as warning texts."""
    out = []
    if not plan.snr_msb_db >= MIN_MSB_DB:
        out.append(f"{label}: MSB-path SNR {plan.snr_msb_db:g} dB below "
                   f"{MIN_MSB_DB:g} dB; decode failures not negligible")
    if not plan.snr_lsb_db <= MAX_LSB_DB:
        out.append(f"{label}: LSB-path SNR {plan.snr_lsb_db:g} dB above "
                   f"{MAX_LSB_DB:g} dB; injected error too narrow")
    return out


def session_plans(version: str, snr_msb_db: float, snr_lsb_db: float):
    """(public key, ciphertext) plans of a session: the ciphertext's low
    bits take the exposed path; v1's key travels with both paths protected,
    v2's key like the ciphertext, so the channel injects its error."""
    ct_plan = ChannelPlan(snr_msb_db, snr_lsb_db)
    if version == "v1":
        return ChannelPlan(snr_msb_db, snr_msb_db), ct_plan
    return ct_plan, ct_plan


# ---------------------------------------------------------------------------
# V2 key generation; V1 and V2 encrypt with pke.wk_encrypt / wk_decrypt


def v2_keygen(seeds_a, rngs, params: ParamSet):
    """b = A s with no sampled error; the channel adds it in transit.
    Returns ((seeds_a, b), s)."""
    return keygen(seeds_a, rngs, params, with_error=False)


# ---------------------------------------------------------------------------
# V1 KEM (re-encrypting transform with implicit rejection)

# how decapsulation compares the re-encrypted ciphertext with the received
FO_POLICIES = ("msb-only", "exact")


def kem_v1_keygen(seeds_a, rngs, params: ParamSet):
    """The baseline key generation (binomial e retained), then each rng's
    32-byte implicit-rejection secret z.  Returns ((seeds_a, b), s, zs)."""
    pks, s = keygen(seeds_a, rngs, params)
    return pks, s, [rng.read(32) for rng in rngs]


def kem_v1_encaps(pks, bits: np.ndarray, params: ParamSet):
    """Encapsulate each session's message bits to its key.  Returns
    (ciphertexts to transmit, shared secrets).

    Deterministic given (pk, message): key and coins derive from the message
    and the projected public key; the secret also binds the clean ciphertext.
    The projection zeroes the exposed w2 bits of b; a stored q - 1 = 4 * 832
    whose w2 bits rise arrives as 0..2 (the wrap `_coeffs_match` allows for
    ciphertexts), so 4 * 832 joins the class of 0.
    """
    seeds, b = pks
    b = (b & ~3) % (Q - 1)
    messages = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    # 32 key bytes, then 32 coin bytes
    kd = [squeeze(m.tobytes() + squeeze(seed + pack12(b_i), b"pk", 32),
                  b"enc", 64)
          for m, seed, b_i in zip(messages, seeds, b)]
    c = wk_encrypt((seeds, b), bits, [d[32:] for d in kd], params)
    return c, [squeeze(d[:32] + squeeze(pack12(c_i), b"ct", 32), b"kdf", 32)
               for d, c_i in zip(kd, c)]


def _coeffs_match(expected: np.ndarray, received: np.ndarray,
                  policy: str) -> bool:
    if policy == "exact":
        return np.array_equal(expected, received)
    # msb-only: the protected words w10 = c >> 2 must agree exactly.  One
    # wrap is honest: q = 4 * 832 + 1, so a stored q - 1 = 4 * 832 whose w2
    # bits rise comes back as 4 * 832 + 1..3 = 0..2 mod q
    same = (expected >> 2) == (received >> 2)
    wrapped = (expected == Q - 1) & (received <= 2)
    return bool((same | wrapped).all())


def kem_v1_decaps(s: np.ndarray, zs, pks, received: np.ndarray,
                  params: ParamSet, policy: str = "msb-only") -> list:
    """Decrypt, encapsulate the result again as the sender did, compare;
    a session whose ciphertext mismatches yields its implicit-rejection
    secret rather than an error.

    The default msb-only policy compares the BCH-protected w10 words
    exactly, and accepts one wrap besides: a coefficient sent as q - 1 and
    received as 0..2.  Exact comparison rejects nearly every honest session
    because the channel legitimately perturbs the exposed bits.
    """
    if policy not in FO_POLICIES:
        raise ValueError(f"unknown comparison policy {policy!r}")
    expected, secrets = kem_v1_encaps(pks, wk_decrypt(s, received), params)
    return [secret if _coeffs_match(c2, c_rx, policy)
            else squeeze(z + squeeze(pack12(c_rx), b"ct", 32), b"rej", 32)
            for secret, c2, c_rx, z in zip(secrets, expected, received, zs)]


# ---------------------------------------------------------------------------
# full sessions over the simulated channel


@dataclass(eq=False)
class SessionRun:
    """A run of S sessions: the run's constants once, then one entry per
    seed, in seed order, in each (S,) array."""

    version: str
    k: int
    pk_plan: ChannelPlan
    ct_plan: ChannelPlan
    warnings: tuple              # ways the plans leave the operating window
    outcome: np.ndarray          # bool: both sides hold the same secret/bits
    bch_failures_pk: np.ndarray  # int64: failed blocks on the key leg
    bch_failures_ct: np.ndarray  # int64: failed blocks on the ciphertext leg
    # (S, (k + 1) * 256) centred received - sent ciphertext, if collected
    ct_error_offsets: np.ndarray | None = None


def _derive_seed(master: int, label: bytes) -> bytes:
    """Seeds below 2^64 hash as 8 bytes; larger ones as their minimal
    little-endian encoding, which no 8-byte seed shares."""
    if master < 0:
        raise ValueError(f"session seed {master} is negative")
    width = max(8, (master.bit_length() + 7) // 8)
    return squeeze(master.to_bytes(width, "little"), b"session" + label, 32)


def _send_pk(seed: bytes, b: np.ndarray, plan: ChannelPlan,
             noise: NoiseSource):
    """Seed bytes ride the protected path (26 blocks of 10 bits), then the
    (k, 256) b coefficients take the standard 17-symbol form.  Returns the
    received seed blocks and b's received (msb, lsb) words."""
    seed_bits = np.unpackbits(np.frombuffer(seed, dtype=np.uint8),
                              bitorder="little").astype(np.int64)
    padded = np.concatenate([seed_bits, np.zeros(4, dtype=np.int64)])
    weights = (1 << np.arange(9, -1, -1)).astype(np.int64)
    words = padded.reshape(26, 10) @ weights
    seed_blocks = send_blocks(words, plan.snr_msb_db, noise)
    return (seed_blocks, *send_coeffs(b, plan, noise))


def _decode_leg(segments, sessions: int):
    """One block decode of a leg's received words, given session after
    session: ((B, words per session) decoded words, failures per session)."""
    words = np.concatenate(segments)
    w10, failed = receive_blocks(words, len(words))
    return w10.reshape(sessions, -1), failed.reshape(sessions, -1).sum(axis=1)


def _receive_pks(sent, params: ParamSet):
    """((seeds, b), failures per key) from B (seed blocks, msb, lsb)
    triples."""
    w10, failures = _decode_leg([w for blocks, msb, _ in sent
                                 for w in (blocks, msb)], len(sent))
    bits = (w10[:, :26, None] >> np.arange(9, -1, -1)) & 1
    seeds = np.packbits(bits.reshape(len(sent), -1)[:, :256].astype(np.uint8),
                        axis=1, bitorder="little")
    lsb = np.stack([lsb for *_, lsb in sent])
    b = join_coeffs(w10[:, 26:], lsb).reshape(len(sent), params.k, N)
    return ([seed.tobytes() for seed in seeds], b), failures


def _receive_cts(sent, params: ParamSet):
    """((B, k + 1, 256) coefficients, failures per ciphertext) from B
    (msb, lsb) pairs."""
    w10, failures = _decode_leg([msb for msb, _ in sent], len(sent))
    lsb = np.stack([lsb for _, lsb in sent])
    return join_coeffs(w10, lsb).reshape(len(sent), -1, N), failures


def _noise_source(seed: int, label: bytes) -> NoiseSource:
    return NoiseSource(int.from_bytes(_derive_seed(seed, label)[:8], "little"))


def run_sessions(version: str, params: ParamSet, plans, seeds, *,
                 fo_policy: str = "msb-only",
                 collect_offsets: bool = False) -> SessionRun:
    """Full exchanges, one per seed: keygen, key transport, encrypt/encaps,
    ciphertext transport, decrypt/decaps.  Returns one SessionRun whose
    arrays hold session i at index i.

    plans is the (public key, ciphertext) ChannelPlan pair.  Policy
    violations are recorded as warnings; the run proceeds regardless.
    V2 keys are ephemeral by construction: every session generates its own.
    Sessions run SESSION_BATCH at a time; a session's entries depend only
    on its own seed (see the module docstring).
    """
    if version not in ("v1", "v2"):
        raise ValueError(f"version must be 'v1' or 'v2', got {version!r}")
    if fo_policy not in FO_POLICIES:
        raise ValueError(f"unknown comparison policy {fo_policy!r}")
    pk_plan, ct_plan = plans
    warnings = tuple(snr_warnings(ct_plan, "ciphertext")
                     + (snr_warnings(pk_plan, "public key")
                        if version == "v2" else []))
    outcome = np.zeros(len(seeds), dtype=bool)
    pk_fail, ct_fail = np.zeros((2, len(seeds)), dtype=np.int64)
    offsets = (np.zeros((len(seeds), (params.k + 1) * N), dtype=np.int64)
               if collect_offsets else None)
    for at in range(0, len(seeds), SESSION_BATCH):
        batch = slice(at, at + SESSION_BATCH)
        outcome[batch], pk_fail[batch], ct_fail[batch], error = _run_batch(
            version, params, plans, seeds[batch], fo_policy)
        if offsets is not None:
            offsets[batch] = centered(error)
    return SessionRun(version, params.k, pk_plan, ct_plan, warnings, outcome,
                      pk_fail, ct_fail, offsets)


def _run_batch(version, params, plans, seeds, fo_policy):
    """(outcome, key-leg failures, ciphertext-leg failures, (B, (k + 1) *
    256) received - sent ciphertext) of each session of one batch."""
    pk_plan, ct_plan = plans
    # every session draws from its own streams, in the order of one session
    key_rngs = [XofStream(_derive_seed(s, b"key"), b"rng") for s in seeds]
    msg_rngs = [XofStream(_derive_seed(s, b"msg"), b"rng") for s in seeds]
    noise_a = [_noise_source(s, b"ch-a") for s in seeds]
    noise_b = [_noise_source(s, b"ch-b") for s in seeds]
    seeds_a = [rng.read(32) for rng in key_rngs]
    if version == "v1":
        pks, sks, zs = kem_v1_keygen(seeds_a, key_rngs, params)
    else:
        pks, sks = v2_keygen(seeds_a, key_rngs, params)
    pks_rx, pk_fail = _receive_pks([_send_pk(seed, b, pk_plan, noise)
                                    for seed, b, noise in zip(*pks, noise_a)],
                                   params)
    bits = random_bits(msg_rngs)
    if version == "v1":
        c_clean, secrets_b = kem_v1_encaps(pks_rx, bits, params)
    else:
        c_clean = wk_encrypt(pks_rx, bits, [rng.read(32) for rng in msg_rngs],
                             params)
    c_rx, ct_fail = _receive_cts([send_coeffs(c, ct_plan, noise)
                                  for c, noise in zip(c_clean, noise_b)], params)
    if version == "v1":
        secrets_a = kem_v1_decaps(sks, zs, pks, c_rx, params, fo_policy)
        outcome = [a == b for a, b in zip(secrets_a, secrets_b)]
    else:
        outcome = (wk_decrypt(sks, c_rx) == bits).all(axis=1)
    return outcome, pk_fail, ct_fail, (c_rx - c_clean).reshape(len(seeds), -1)
