"""Physical-layer transport of 12-bit ring coefficients.

Each coefficient w in [0, q) splits into the 10 most significant bits
w10 = w >> 2 and the 2 least significant bits w2 = w & 3.  The w10 word is
BCH(31,11)-encoded (leading message bit zero), sent MSB-first with one zero
pad bit as 16 4QAM symbols on the protected path; w2 rides a single symbol
on the low-SNR path.  17 symbols per coefficient, coefficient-major order:
this is the wire contract for both protocol versions.  A public key's
32-byte matrix seed rides ahead of its coefficients as 26 protected blocks
of 10 bits (4 zero pad bits).  Those two legs are all a session sends:
``send_key`` and ``send_coeffs`` each carry B sessions' key or ciphertext
legs in one call, which encodes, flips (each session from its own noise
source) and decodes with one block decode, and return what the receiver
gets: the 12-bit words 4 * w10 + w2 (``pke`` reduces them mod q where ring
arithmetic starts).

The simulator samples that wire's hard-decision equivalent (see ``modem``):
a received block is its 31-bit codeword XOR a flip mask, a received w2 the
sent bits XOR a 2-bit mask, each bit flipping with its path's
``modem.bit_error_prob``; the coefficient error that induces is
``reliability.coeff_error_dist``.
"""

from __future__ import annotations

import math

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
    blocks, coefficient blocks, then w2 bits.  One block decode of every
    received block returns (the (B, h) received head words, the received
    words 4 * w10 + w2 in coeffs' shape, the failed blocks per session)."""
    c = check_range(coeffs, Q, "coefficients")
    check_sessions(head, c, noises)
    rows = c.reshape(len(c), math.prod(c.shape[1:]))   # -1 fails at B = 0
    h, n, p_msb = head.shape[1], rows.shape[1], bit_error_prob(plan.snr_msb_db)
    # a field of no words draws nothing (NoiseSource.flips)
    masks = flip_masks(noises, [(h, bch.CODE_N, p_msb), (n, bch.CODE_N, p_msb),
                                (n, 2, bit_error_prob(plan.snr_lsb_db))])
    msgs, _, failed = bch.decode_words(bch.ENCODE_TABLE[np.concatenate(
        (head, rows >> 2), axis=1)] ^ masks[:, :h + n])
    # a leg's blocks carry 10-bit messages under a zero leading bit, which
    # a miscorrection can set: dropping it keeps every word within 12 bits
    w10 = (msgs & 0x3FF).reshape(len(c), h + n)
    words = 4 * w10[:, h:] + ((rows & 3) ^ masks[:, h + n:])
    return (w10[:, :h], words.reshape(c.shape),
            failed.reshape(len(c), h + n).sum(axis=1))


def send_coeffs(coeffs, plan: ChannelPlan, noises):
    """Send B sessions' coefficients (< q), one session and noise source
    per row of coeffs.  Returns what the receiver decodes: (words,
    failures), the received 12-bit words in [0, 4096), not reduced mod q,
    in coeffs' shape, and the failed blocks per session."""
    _, words, failures = _send_leg(np.zeros((len(coeffs), 0), dtype=np.int64),
                                   coeffs, plan, noises)
    return words, failures


def send_key(seeds, b, plan: ChannelPlan, noises):
    """Send B public keys: each 32-byte seed's 26 blocks, then its b as
    send_coeffs sends it.  Returns the received (seeds, b, failures), b in
    the shape it was sent and failures counting seed and b blocks."""
    seeds = check_bytes(seeds, SEED_BYTES)
    bits = np.unpackbits(np.frombuffer(b"".join(seeds), dtype=np.uint8)
                         .reshape(len(seeds), 32), axis=1, bitorder="little")
    words = np.pad(bits, ((0, 0), (0, 4))).reshape(
        len(seeds), SEED_BLOCKS, 10).astype(np.int64) @ (1 << _BIT_SHIFTS)
    head, b_rx, failures = _send_leg(words, b, plan, noises)
    bits = (head[..., None] >> _BIT_SHIFTS & 1).reshape(-1, 10 * SEED_BLOCKS)
    seeds_rx = np.packbits(bits[:, :256].astype(np.uint8), axis=1,
                           bitorder="little")
    return [seed.tobytes() for seed in seeds_rx], b_rx, failures
