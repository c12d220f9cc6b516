"""Binary BCH(31, 11) codec over GF(2^5), correcting up to 5 bit errors.

Codewords are 31-bit integers, bit j holding the coefficient of x^j.
Encoding is systematic: the 11 message bits occupy positions 30..20 and the
20 parity bits (remainder of x^20 * m(x) modulo the generator) positions
19..0.  GF(2^5) is built on the primitive polynomial x^5 + x^2 + 1; this
fixes the generator and therefore the parity bits, so it is wire-format law.

Decoding is Meggitt's cyclic syndrome decoder, batched over an array of
words.  A word's syndrome r mod g is one ENCODE_TABLE lookup, and zero
means a codeword.  The minimum distance is 11, so no two error patterns of
weight <= 5 share a syndrome; the code is cyclic, so a rotated word carries
the rotated error.  Each word with a nonzero syndrome therefore has its 31
rotations looked up in a sorted table of the syndromes of the 31,931
patterns of weight 1..5 with bit 0 set, built on first use.  A hit at
rotation m is the error pattern, rotated back by m; no hit means no
codeword within distance 5, a decode failure.  More than 5 channel errors
end in that failure or, rarely, land within 5 of a different codeword; the
miscorrection hazard is handled by the layers above.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations

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
_CHUNK = 4096           # failing blocks rotated at a time (31 words each)


def _rotate_right(words: np.ndarray, shift) -> np.ndarray:
    """Cyclic shift x^-shift of 31-bit words; shift may broadcast."""
    return ((words >> shift) | (words << (CODE_N - shift))) & _WORD_MASK


def _syndrome(words: np.ndarray) -> np.ndarray:
    """r mod g: the parity bits of r XOR the parity of r's own message."""
    return words ^ ENCODE_TABLE[words >> PARITY_BITS]


@functools.cache
def _leader_table():
    """(sorted syndromes, error patterns, weights) of the 31,931 patterns of
    weight 1..t with bit 0 set; every correctable error is a rotation of
    one of them."""
    levels = [np.fromiter((sum(1 << j for j in rest) | 1
                           for rest in combinations(range(1, CODE_N), w)),
                          dtype=np.int64) for w in range(CODE_T)]
    patterns = np.concatenate(levels)
    weights = np.repeat(np.arange(1, CODE_T + 1, dtype=np.int8),
                        [len(level) for level in levels])
    syndromes = _syndrome(patterns)
    order = np.argsort(syndromes)
    table = syndromes[order], patterns[order], weights[order]
    for column in table:
        column.flags.writeable = False   # shared by every caller
    return table


def decode_words(received):
    """Decode 31-bit words, flattened to one axis.

    Returns (messages, corrections, failed).  A word within distance t of a
    codeword decodes to it, with the distance as its correction count; any
    other word is a failure and keeps its uncorrected systematic bits.  A
    word within t of a wrong codeword decodes "successfully" to that
    codeword; the caller accounts for that hazard end to end.
    """
    words = np.asarray(received, dtype=np.int64).ravel()
    if words.size and (words.min() < 0 or words.max() > _WORD_MASK):
        raise ValueError("received words must fit in 31 bits")
    errors = np.zeros_like(words)
    corrections = np.zeros_like(words)
    failed = np.zeros(words.shape, dtype=bool)
    dirty = np.flatnonzero(_syndrome(words))
    for at in range(0, dirty.size, _CHUNK):
        idx = dirty[at:at + _CHUNK]
        syndromes, patterns, weights = _leader_table()
        # rotation m of a word moves an error at bit m to bit 0, where the
        # table holds every correctable pattern
        rotated = _syndrome(_rotate_right(words[idx, None], np.arange(CODE_N)))
        pos = np.minimum(np.searchsorted(syndromes, rotated),
                         len(syndromes) - 1)
        hit = syndromes[pos] == rotated
        found = hit.any(axis=1)
        failed[idx[~found]] = True
        m = hit[found].argmax(axis=1)
        leader = pos[found, m]
        errors[idx[found]] = _rotate_right(patterns[leader], (CODE_N - m) % CODE_N)
        corrections[idx[found]] = weights[leader]
    return (words ^ errors) >> PARITY_BITS, corrections, failed


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
