"""Binary BCH(31, 11) codec over GF(2^5), correcting up to 5 bit errors.

Codewords are 31-bit integers, bit j holding the coefficient of x^j.
Encoding is systematic: the 11 message bits occupy positions 30..20 and the
20 parity bits (remainder of x^20 * m(x) modulo the generator) positions
19..0.  GF(2^5) is built on the primitive polynomial x^5 + x^2 + 1; this
fixes the generator and therefore the parity bits, so it is wire-format law.

Decoding is syndrome (coset-leader) decoding, batched over an array of
words.  A word's syndrome r mod g is one ENCODE_TABLE lookup, and zero
means a codeword.  The minimum distance is 11, so the 206,367 error
patterns of weight 1..5 have distinct syndromes.  Each word with a nonzero
syndrome is looked up once in a sorted table of all of them, built on first
use.  A hit is the error pattern, and its weight is the correction count;
no hit means no codeword within distance 5, a decode failure.  More than 5
channel errors end in that failure or, rarely, land within 5 of a different
codeword; the miscorrection hazard is handled by the layers above.
"""

from __future__ import annotations

import functools
import math

import numpy as np

CODE_N = 31             # block length 2^5 - 1
CODE_K = 11             # message bits
CODE_T = 5              # correction capability
PARITY_BITS = CODE_N - CODE_K

# lcm of the minimal polynomials over GF(2) of alpha^1, alpha^3, ..., alpha^9
# for alpha a root of x^5 + x^2 + 1: alpha^9 is a conjugate of alpha^5, so
# g = m1 m3 m5 m7 = 0x25 * 0x3D * 0x37 * 0x2F (carry-less).  g vanishes on
# alpha^1..alpha^10 (design distance 11), has degree 20 and divides x^31 - 1;
# tests/test_bch.py derives it again from the field.
GENERATOR = 0x1626D5


def _poly2_mod(a: int, g: int) -> int:
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


def bch_encode(msg: int) -> int:
    """Systematic 31-bit codeword for an 11-bit message."""
    if not 0 <= msg < (1 << CODE_K):
        raise ValueError("message must fit in 11 bits")
    shifted = msg << PARITY_BITS
    return shifted | _poly2_mod(shifted, GENERATOR)


# one codeword per message; also the syndrome table (see _syndrome)
ENCODE_TABLE = np.array([bch_encode(m) for m in range(1 << CODE_K)],
                        dtype=np.int64)


_WORD_MASK = (1 << CODE_N) - 1
_KEY_SHIFT = 32         # error-table key: syndrome << 32 | pattern
_SYNDROME_CHUNK = 8192  # table keys given their syndrome at a time


def _syndrome(words: np.ndarray) -> np.ndarray:
    """r mod g: the parity bits of r XOR the parity of r's own message."""
    return words ^ ENCODE_TABLE[words >> PARITY_BITS]


@functools.cache
def _error_table() -> np.ndarray:
    """Sorted keys syndrome << 32 | pattern of the 206,367 error patterns of
    weight 1..t, as one read-only int64 array (1.65 MB).

    The patterns are filled in place weight by weight.  Those of weight w
    with top bit b are bit b over the weight-(w - 1) patterns below b; each
    level is ordered by top bit, so those are the first comb(b, w - 1) of
    the level before, a view into the same array.
    """
    keys = np.empty(sum(math.comb(CODE_N, w) for w in range(1, CODE_T + 1)),
                    dtype=np.int64)
    level, at = np.zeros(1, dtype=np.int64), 0   # weight 0: no error
    for w in range(1, CODE_T + 1):
        start = at
        for b in range(w - 1, CODE_N):
            n = math.comb(b, w - 1)
            np.bitwise_or(level[:n], 1 << b, out=keys[at:at + n])
            at += n
        level = keys[start:at]
    for b in range(0, keys.size, _SYNDROME_CHUNK):
        block = keys[b:b + _SYNDROME_CHUNK]
        block |= _syndrome(block) << _KEY_SHIFT
    keys.sort()
    keys.flags.writeable = False        # shared by every caller
    return keys


def decode_words(received):
    """Decode 31-bit words, flattened to one axis.

    Returns (messages, corrections, failed).  A word within distance t of a
    codeword decodes to it, with the distance as its correction count; any
    other word is a failure and keeps its uncorrected systematic bits.  A
    word within t of a wrong codeword decodes "successfully" to that
    codeword; the caller accounts for that hazard end to end.
    """
    words = np.asarray(received).ravel()
    if words.size and words.dtype.kind not in "iu":
        raise ValueError("received words must be integers")
    if words.size and (words.min() < 0 or words.max() > _WORD_MASK):
        raise ValueError("received words must fit in 31 bits")
    words = words.astype(np.int64)
    corrections = np.zeros_like(words)
    failed = np.zeros(words.shape, dtype=bool)
    syndromes = _syndrome(words)
    dirty = np.flatnonzero(syndromes)
    if dirty.size:
        keys = _error_table()
        wanted = syndromes[dirty]
        # a pattern is never 0, so the key of syndrome s is the first >= s << 32
        pos = np.minimum(np.searchsorted(keys, wanted << _KEY_SHIFT),
                         keys.size - 1)
        found = keys[pos] >> _KEY_SHIFT == wanted
        fixed, errors = dirty[found], keys[pos[found]] & _WORD_MASK
        words[fixed] ^= errors
        bits = np.unpackbits(errors.view(np.uint8)).reshape(-1, 64)
        corrections[fixed] = bits.sum(axis=1)   # the patterns' weights
        failed[dirty[~found]] = True
    return words >> PARITY_BITS, corrections, failed


def bch_decode(received: int):
    """Decode one 31-bit word: (message, corrections), or None on failure."""
    if not 0 <= received <= _WORD_MASK:
        raise ValueError("received word must fit in 31 bits")
    msgs, corrections, failed = decode_words([received])
    return None if failed[0] else (int(msgs[0]), int(corrections[0]))


def codeword_error_prob(p_b: float) -> float:
    """Probability that more than t = 5 of the 31 bits arrive flipped.

    Exact upper binomial tail; numerically this equals the regularized
    incomplete beta form I_p(t+1, n-t) without the cancellation that the
    1 - CDF route suffers at small p.
    """
    if not 0.0 <= p_b <= 1.0:
        raise ValueError("bit error probability outside [0, 1]")
    total = 0.0
    for j in range(CODE_T + 1, CODE_N + 1):
        total += (math.comb(CODE_N, j) * p_b ** j * (1.0 - p_b) ** (CODE_N - j))
    return min(total, 1.0)
