"""Physical-layer transport of 12-bit ring coefficients.

Each coefficient w in [0, q) splits into the 10 most significant bits
w10 = w >> 2 and the 2 least significant bits w2 = w & 3.  The w10 word is
BCH(31,11)-encoded (leading message bit zero), sent MSB-first with one zero
pad bit as 16 4QAM symbols on the protected path; w2 rides a single symbol
on the low-SNR path.  17 symbols per coefficient, coefficient-major order:
this is the wire contract for both protocol versions.  A public key's
32-byte matrix seed rides ahead of its coefficients as 26 protected blocks
of 10 bits (4 zero pad bits).  Those two legs are all a session sends:
``send_key`` and ``send_coeffs`` send B sessions' key or ciphertext legs as
(B, words) arrays, each session's flips drawn from its own noise source,
and ``receive_coeffs``, their one receiver, decodes either with one block
decode into the received 12-bit words 4 * w10 + w2 (``pke`` reduces them
mod q where ring arithmetic starts).

The simulator samples that wire's hard-decision equivalent (see ``modem``):
a received block is its 31-bit codeword XOR a flip mask, a received w2 the
sent bits XOR a 2-bit mask, each bit flipping with its path's
``modem.bit_error_prob``; the coefficient error that induces is
``reliability.coeff_error_dist``.
"""

from __future__ import annotations

import numpy as np

from . import bch
from .core import SEED_BYTES, check_bytes, check_range, check_sessions
from .modem import ChannelPlan, bit_error_prob, flip_masks
from .params import Q


# ---------------------------------------------------------------------------
# the two legs a session sends: a key (seed blocks, then b) and a ciphertext

SEED_BLOCKS = 26                       # 256 seed bits + 4 pad bits
_BIT_SHIFTS = np.arange(9, -1, -1)     # a block's bits, most significant first


def _send_leg(head: np.ndarray, coeffs, plan: ChannelPlan, noises):
    """B legs: the (B, h) head blocks, a key's 10-bit seed words (h = 26)
    or none (a ciphertext), then each session's coefficients in row-major
    order.  Each session draws its flips from its own noise source: head
    blocks, coefficient blocks, then w2 bits."""
    c = check_range(coeffs, Q, "coefficients")
    check_sessions(head, c, noises)
    c = c.reshape(len(c), -1)
    h, n, p_msb = head.shape[1], c.shape[1], bit_error_prob(plan.snr_msb_db)
    # a field of no words draws nothing (NoiseSource.flips)
    masks = flip_masks(noises, [(h, bch.CODE_N, p_msb), (n, bch.CODE_N, p_msb),
                                (n, 2, bit_error_prob(plan.snr_lsb_db))])
    msb = bch.ENCODE_TABLE[np.concatenate((head, c >> 2), axis=1)]
    return msb ^ masks[:, :h + n], (c & 3) ^ masks[:, h + n:]


def send_coeffs(coeffs, plan: ChannelPlan, noises):
    """Transmit B sessions' coefficients (< q), one session and noise source
    per row of coeffs.  Returns the received (msb, lsb) words as two (B, n)
    arrays: a 31-bit BCH word and a 2-bit word per coefficient."""
    return _send_leg(np.zeros((len(coeffs), 0), dtype=np.int64), coeffs,
                     plan, noises)


def send_key(seeds, b, plan: ChannelPlan, noises):
    """Transmit B public keys: each 32-byte seed's 26 blocks, then its b
    as send_coeffs sends it.  Returns (msb, lsb), the seed blocks at the
    head of each (B, 26 + n) msb row."""
    seeds = check_bytes(seeds, SEED_BYTES)
    bits = np.unpackbits(np.frombuffer(b"".join(seeds), dtype=np.uint8)
                         .reshape(len(seeds), 32), axis=1, bitorder="little")
    words = np.pad(bits, ((0, 0), (0, 4))).reshape(
        len(seeds), SEED_BLOCKS, 10).astype(np.int64) @ (1 << _BIT_SHIFTS)
    return _send_leg(words, b, plan, noises)


def receive_coeffs(msb: np.ndarray, lsb: np.ndarray):
    """Decode B sessions' received (B, m) msb and (B, n) lsb words with one
    block decode.  Returns (seeds, coeffs, failures): the B received seeds,
    or None for a ciphertext leg (a key leg's msb has 26 seed blocks more
    than its lsb); the (B, n) received 12-bit words 4 * w10 + w2 in
    [0, 4096), not reduced mod q; and the failed blocks per session.  A w2
    word outside [0, 4), msb or lsb not 2-D, or msb and lsb rows that
    differ in count, raise ValueError."""
    if np.ndim(msb) != 2 or np.ndim(lsb) != 2:
        raise ValueError("msb and lsb must be 2-D (sessions, words) arrays")
    check_sessions(msb, lsb)
    lsb = check_range(lsb, 4, "w2 words")
    head = msb.shape[1] - lsb.shape[1]
    if head not in (0, SEED_BLOCKS):
        raise ValueError(f"a leg's msb holds {head} blocks more than its "
                         f"lsb; expected 0 or {SEED_BLOCKS}")
    msgs, _, failed = bch.decode_words(msb)
    # a leg's blocks carry 10-bit messages under a zero leading bit, which
    # a miscorrection can set: dropping it keeps every word within 12 bits
    w10 = (msgs & 0x3FF).reshape(msb.shape)
    seeds = None
    if head:
        bits = (w10[:, :head, None] >> _BIT_SHIFTS) & 1
        seeds = [seed.tobytes() for seed in np.packbits(
            bits.reshape(len(msb), -1)[:, :256].astype(np.uint8), axis=1,
            bitorder="little")]
    return (seeds, 4 * w10[:, head:] + lsb,
            failed.reshape(msb.shape).sum(axis=1))

