"""WKyber V1/V2 public-key encryption and the V1 key encapsulation mechanism.

Both versions drop the sampled ciphertext noise of the baseline scheme and
let the channel supply it: the uncompressed ciphertext (u = A^T s',
v = b^T s' + mhat) travels with its two low bits exposed at low SNR.  V1
keeps the baseline key generation (b = A s + e, public key sent with both
paths well protected) and therefore supports the re-encrypting KEM; V2 also
drops e (b = A s, pke.keygen with with_error=False) and lets the public-key
transmission inject it, which rules out re-encryption, so V2 is used as a
PKE with ephemeral keys.  Both versions encrypt and decrypt with
pke.wk_encrypt and pke.wk_decrypt.

KEM robustness and security: the channel may flip the two low bits (w2) of
any coefficient, which no BCH code protects, so the KEM depends on none of
them.  Received keys and ciphertexts are the 12-bit words 4 * w10 + w2
that the transport legs return, so a w2 flip never reaches w10.
The KEM binds its hash chain and re-encryption to the protected
projection 4 * (b >> 2) + 2 of the public key, and decapsulation decrypts
from the received protected words w10 = c >> 2 alone, read the same way.
The key's public offset 2 - (b & 3) has second moment 1.5 and puts a k = 3
message's failure near 2^-153 in the engine (b & ~3: 3.5 and 2^-101).  The
decrypted message is then a function of w10, so comparing the
re-encryption's w10 words is the re-encryption check of a deterministic PKE
(Hofheinz, Hoevelmanns and Kiltz, "A modular analysis of the
Fujisaki-Okamoto transformation", TCC 2017).  The ciphertexts accepted for
c are exactly those with c's w10 words.  Anyone can rewrite w2 without
changing the key, so the target is replayable CCA security (Canetti,
Krawczyk and Nielsen, "Relaxing chosen-ciphertext security", CRYPTO 2003),
not IND-CCA2.

Every V1/V2 function takes B sessions at once (one session is B = 1), with
keys, secrets and ciphertexts in the array forms of :mod:`wkyber.pke`, and
run_sessions calls them on SESSION_BATCH sessions at a time.  Each session
keeps its own noise sources and flip draws, in the order of a lone session,
and its own KEM hashes, though one pack12 packs a batch's hashed arrays.
Its randomness is two SHAKE streams, each read by one squeeze and sliced:
the key stream as matrix seed (32 bytes) | keygen noise | z (32, v1 only),
the message stream as message bits (32) | coins (32, v2 only).  The ring
work is stacked on (B, k, 256) arrays, and one transport.send_key or
send_coeffs call carries a batch's leg.
Stacked arithmetic is exact and blocks decode alone, so no result depends
on B or worker count.  A run of S sessions comes back as one SessionRun of
(S,) arrays of outcomes and per-leg BCH failures; the version, rank and
plans stay with the caller, which checks them with snr_warnings, and
ker_monte_carlo counts a run's failed sessions over worker processes.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass

import numpy as np

from .core import (SEED_BYTES, centered, check_bytes, check_range,
                   check_sessions, pack12, squeeze)
from .modem import ChannelPlan, NoiseSource
from .params import N, ParamSet
from .pke import keygen, keygen_bytes, random_bits, wk_decrypt, wk_encrypt
from .transport import send_coeffs, send_key

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


def _is_v1(version: str) -> bool:
    """True for "v1", False for "v2", ValueError for any other version."""
    if version not in ("v1", "v2"):
        raise ValueError(f"version must be 'v1' or 'v2', got {version!r}")
    return version == "v1"


def snr_warnings(version: str, plans) -> list:
    """The ways a session's (public key, ciphertext) plans leave the
    operating window, as warning texts: the ciphertext plan's, then v2's
    key plan's (v1's key travels with both paths protected)."""
    pk_plan, ct_plan = plans
    out = []
    for label, plan in [("ciphertext", ct_plan)] + (
            [] if _is_v1(version) else [("public key", pk_plan)]):
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
    return (ChannelPlan(snr_msb_db, snr_msb_db) if _is_v1(version)
            else ct_plan), ct_plan


# ---------------------------------------------------------------------------
# V1 KEM (re-encrypting transform with implicit rejection)

def kem_v1_encaps(pks, bits: np.ndarray, params: ParamSet):
    """Encapsulate each session's message bits to its key.  Returns
    (ciphertexts to transmit, shared secrets).

    Deterministic given (pk, message): key and coins derive from the message
    and the projected public key 4 * (b >> 2) + 2, the received words of b
    with their exposed w2 bits read as 2, as decapsulation reads a
    ciphertext's; the secret also binds the clean ciphertext.  Each key
    word must be an integer in [0, 4096) (ValueError otherwise).
    """
    seeds, b = pks
    b = 4 * (check_range(b, 1 << 12, "key words") >> 2) + 2
    messages = np.packbits(bits.astype(np.uint8), axis=-1, bitorder="little")
    # 32 key bytes, then 32 coin bytes
    kd = [squeeze(m.tobytes() + squeeze(seed + b_i, b"pk", 32), b"enc", 64)
          for m, seed, b_i in zip(messages, seeds, _pack_sessions(b),
                                  strict=True)]
    c = wk_encrypt((seeds, b), bits, [d[32:] for d in kd], params)
    return c, [squeeze(d[:32] + squeeze(c_i, b"ct", 32), b"kdf", 32)
               for d, c_i in zip(kd, _pack_sessions(c), strict=True)]


def _pack_sessions(x: np.ndarray) -> list:
    """Each session's pack12, sliced from one pack12 of the batch (a session
    holds an even number of coefficients)."""
    data, width = pack12(x), 3 * math.prod(x.shape[1:]) // 2
    return [data[i * width:(i + 1) * width] for i in range(len(x))]


def kem_v1_decaps(s: np.ndarray, zs, pks, received: np.ndarray,
                  params: ParamSet) -> list:
    """Decrypt each received ciphertext's protected words, encapsulate the
    result again as the sender did, compare; a session whose ciphertext
    mismatches yields its implicit-rejection secret rather than an error.

    Decryption reads 4 * w10 + 2 in place of each received word, so no w2
    bit sets any decryption noise.  The check accepts exactly the
    ciphertexts whose w10 words equal the re-encryption's.  That relation is
    public, so the target is replayable CCA (module docstring).  s, zs, the
    keys' seeds and b, and received must agree in count, each z hold 32
    bytes and each received word be an integer in [0, 4096) (ValueError
    otherwise, before any work).
    """
    check_sessions(s, zs, *pks, received)
    zs = check_bytes(zs, SEED_BYTES)
    w10 = check_range(received, 1 << 12, "received words") >> 2
    expected, secrets = kem_v1_encaps(pks, wk_decrypt(s, 4 * w10 + 2), params)
    return [secret if ok
            else squeeze(z + squeeze(pack12(c_rx), b"ct", 32), b"rej", 32)
            for secret, ok, c_rx, z in zip(
                secrets, ((expected >> 2) == w10).all(axis=(-2, -1)), received,
                zs, strict=True)]


# ---------------------------------------------------------------------------
# full sessions over the simulated channel


@dataclass(eq=False)
class SessionRun:
    """A run of S sessions: one entry per seed, in seed order, in each (S,)
    array."""

    outcome: np.ndarray          # bool: both sides hold the same secret/bits
    bch_failures_pk: np.ndarray  # int64: failed blocks on the key leg
    bch_failures_ct: np.ndarray  # int64: failed blocks on the ciphertext leg
    # (S, (k + 1) * 256) centred received - sent ciphertext, if collected
    ct_error_offsets: np.ndarray | None = None


def _derive_seed(master: int, label: bytes) -> bytes:
    """Seeds below 2^64 hash as 8 bytes; larger ones as their minimal
    little-endian encoding, which no 8-byte seed shares."""
    master = operator.index(master)    # numpy ints too; a float: TypeError
    if master < 0:
        raise ValueError(f"session seed {master} is negative")
    width = max(8, (master.bit_length() + 7) // 8)
    return squeeze(master.to_bytes(width, "little"), b"session" + label, 32)


def _noise_source(seed: int, label: bytes) -> NoiseSource:
    return NoiseSource(int.from_bytes(_derive_seed(seed, label)[:8], "little"))


def run_sessions(version: str, params: ParamSet, plans, seeds, *,
                 collect_offsets: bool = False) -> SessionRun:
    """Full exchanges, one per seed: keygen, key transport, encrypt/encaps,
    ciphertext transport, decrypt/decaps.  Returns one SessionRun whose
    arrays hold session i at index i.

    plans is the (public key, ciphertext) ChannelPlan pair; the run
    proceeds whatever snr_warnings says of it.  V2 keys are ephemeral by
    construction: every session generates its own.
    Sessions run SESSION_BATCH at a time; a session's entries depend only
    on its own seed (see the module docstring).
    """
    v1 = _is_v1(version)
    outcome = np.zeros(len(seeds), dtype=bool)
    pk_fail, ct_fail = np.zeros((2, len(seeds)), dtype=np.int64)
    offsets = (np.zeros((len(seeds), (params.k + 1) * N), dtype=np.int64)
               if collect_offsets else None)
    for at in range(0, len(seeds), SESSION_BATCH):
        batch = slice(at, at + SESSION_BATCH)
        outcome[batch], pk_fail[batch], ct_fail[batch], error = _run_batch(
            v1, params, plans, seeds[batch])
        if offsets is not None:
            offsets[batch] = centered(error)
    return SessionRun(outcome, pk_fail, ct_fail, offsets)


def _run_batch(v1, params, plans, seeds):
    """(outcome, key-leg failures, ciphertext-leg failures, (B, (k + 1) *
    256) received - sent ciphertext) per session of a v1 (else v2) batch."""
    pk_plan, ct_plan = plans
    # every session reads one squeeze of its key stream, sliced as matrix
    # seed | keygen noise | z (v1), and one of its message stream, sliced as
    # message bits | coins (v2)
    noise_end = SEED_BYTES + keygen_bytes(params, with_error=v1)
    keys = [squeeze(_derive_seed(s, b"key"), b"rng",
                    noise_end + 32 if v1 else noise_end) for s in seeds]
    msgs = [squeeze(_derive_seed(s, b"msg"), b"rng", 32 if v1 else 64)
            for s in seeds]
    noise_a = [_noise_source(s, b"ch-a") for s in seeds]
    noise_b = [_noise_source(s, b"ch-b") for s in seeds]
    pks, sks = keygen([key[:SEED_BYTES] for key in keys],
                      [key[SEED_BYTES:noise_end] for key in keys], params,
                      with_error=v1)
    seeds_rx, b_rx, pk_fail = send_key(*pks, pk_plan, noise_a)
    pks_rx = (seeds_rx, b_rx)
    bits = random_bits([msg[:32] for msg in msgs])
    if v1:
        c_clean, secrets_b = kem_v1_encaps(pks_rx, bits, params)
    else:
        c_clean = wk_encrypt(pks_rx, bits, [msg[32:] for msg in msgs], params)
    c_rx, ct_fail = send_coeffs(c_clean, ct_plan, noise_b)
    if v1:
        secrets_a = kem_v1_decaps(sks, [key[noise_end:] for key in keys], pks,
                                  c_rx, params)
        outcome = [a == b for a, b in zip(secrets_a, secrets_b, strict=True)]
    else:
        outcome = (wk_decrypt(sks, c_rx) == bits).all(axis=1)
    return outcome, pk_fail, ct_fail, (c_rx - c_clean).reshape(len(seeds), -1)


def _count_failures(args) -> int:
    version, params, plans, seeds = args
    rec = run_sessions(version, params, plans, seeds)
    return int((~rec.outcome).sum())


def ker_monte_carlo(version: str, params: ParamSet, plans, trials: int,
                    seed: int, workers: int | None = None) -> int:
    """The number of failed sessions (key/message mismatches) in trials.

    Per-trial seeds derive from (seed, trial index), so the result does not
    depend on worker scheduling.  At most min(workers, trials, cores)
    processes run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers is not None and workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    base = operator.index(seed) * 1_000_003   # a numpy int64 would overflow
    trial_seeds = [base + i for i in range(trials)]
    # more processes than trials or cores only adds idle forks; the count
    # does not depend on the split
    workers = min(8 if workers is None else workers, trials,
                  os.cpu_count() or 1)
    if workers > 1 and trials >= 64:
        import multiprocessing as mp
        chunks = [trial_seeds[i::workers] for i in range(workers)]
        with mp.Pool(workers) as pool:
            return sum(pool.map(_count_failures,
                                [(version, params, plans, ch)
                                 for ch in chunks]))
    return _count_failures((version, params, plans, trial_seeds))
