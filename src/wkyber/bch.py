"""Binary BCH(31, 11) codec over GF(2^5), correcting up to 5 bit errors.

Codewords are 31-bit integers, bit j holding the coefficient of x^j.
Encoding is systematic: the 11 message bits occupy positions 30..20 and the
20 parity bits (remainder of x^20 * m(x) modulo the generator) positions
19..0.  ENCODE_TABLE, from one vectorised division, is the only encoder.
GF(2^5) is built on the primitive polynomial x^5 + x^2 + 1; this fixes the
generator and therefore the parity bits, so it is wire-format law.

Decoding is syndrome (coset-leader) decoding, batched over an array of
words.  A word's syndrome r mod g is one ENCODE_TABLE lookup, and zero
means a codeword.  The minimum distance is 11, so the 206,367 error
patterns of weight 1..5 have distinct syndromes.  Each word with a nonzero
syndrome is looked up once in a sorted table of all of them, built on first
use, each key's syndrome by linearity from those of its bits.  A hit is
the error pattern, and its weight is the correction count; no hit means no
codeword within distance 5, a decode failure.  More than 5 channel errors
end in that failure or, rarely, land within 5 of a different codeword; the
miscorrection hazard is handled by the layers above.  Both tables are
frozen (core.frozen), so every caller shares them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import check_probability, check_range, frozen

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


def _encode_table() -> np.ndarray:
    """x^20 m(x) + (x^20 m(x) mod g) for all 2,048 messages m at once."""
    shifted = rem = np.arange(1 << CODE_K, dtype=np.int64) << PARITY_BITS
    for bit in range(CODE_N - 1, PARITY_BITS - 1, -1):   # long division
        rem = rem ^ (rem >> bit & 1) * (GENERATOR << (bit - PARITY_BITS))
    return frozen(shifted | rem)


# one codeword per message; also the syndrome table (see _syndrome)
ENCODE_TABLE = _encode_table()


_WORD_MASK = (1 << CODE_N) - 1
_KEY_SHIFT = 35         # key: syndrome << 35 | weight << 31 | pattern


def _syndrome(words: np.ndarray) -> np.ndarray:
    """r mod g: the parity bits of r XOR the parity of r's own message."""
    return words ^ ENCODE_TABLE[words >> PARITY_BITS]


@functools.cache
def _error_table() -> np.ndarray:
    """Sorted keys syndrome << 35 | weight << 31 | pattern of the 206,367
    error patterns of weight 1..t, then a sentinel above every key, as one
    frozen int64 array (1.65 MB, core.frozen).

    The keys are filled in place weight by weight.  Those of weight w with
    top bit b are bit b's key XOR the weight-(w - 1) keys below b, syndromes
    being linear; each level is ordered by top bit, so those are the first
    comb(b, w - 1) of the level before, a view into the same array.
    """
    keys = np.empty(sum(math.comb(CODE_N, w) for w in range(1, CODE_T + 1))
                    + 1, dtype=np.int64)
    level, at = np.zeros(1, dtype=np.int64), 0   # weight 0: no error
    for w in range(1, CODE_T + 1):
        start = at
        for b in range(w - 1, CODE_N):
            n = math.comb(b, w - 1)
            np.bitwise_xor(level[:n], int(_syndrome(1 << b)) << _KEY_SHIFT
                           | 1 << b, out=keys[at:at + n])
            at += n
        level = keys[start:at]
        level += 1 << CODE_N    # bit b kept the weight w - 1 of level[:n]
    keys[at] = np.iinfo(np.int64).max   # no syndrome reaches it
    keys.sort()
    return frozen(keys)


def decode_words(received):
    """Decode 31-bit words, flattened to one axis.

    Returns (messages, corrections, failed).  A word within distance t of a
    codeword decodes to it, with the distance as its correction count; any
    other word is a failure and keeps its uncorrected systematic bits.  A
    word within t of a wrong codeword decodes "successfully" to that
    codeword; the caller accounts for that hazard end to end.
    """
    words = check_range(np.ravel(received), 1 << CODE_N, "received words")
    words = words.copy()    # the corrections are XORed in place
    corrections = np.zeros(words.size, dtype=np.int64)
    failed = np.zeros(words.size, dtype=bool)
    syndromes = _syndrome(words)
    dirty = (syndromes != 0).nonzero()[0]
    if dirty.size:
        keys = _error_table()
        wanted = syndromes[dirty]
        # the key of syndrome s is the first >= s << 35, if it has s at all
        hit = keys[np.searchsorted(keys, wanted << _KEY_SHIFT)]
        found = hit >> _KEY_SHIFT == wanted
        hit *= found
        words[dirty] ^= hit & _WORD_MASK
        corrections[dirty] = hit >> CODE_N & 7   # the pattern's weight
        failed[dirty] = ~found
    return words >> PARITY_BITS, corrections, failed


def codeword_error_prob(p_b: float) -> float:
    """Probability that more than t = 5 of the 31 bits arrive flipped.

    Exact upper binomial tail; numerically this equals the regularized
    incomplete beta form I_p(t+1, n-t) without the cancellation that the
    1 - CDF route suffers at small p.
    """
    check_probability(p_b)
    total = 0.0
    for j in range(CODE_T + 1, CODE_N + 1):
        total += (math.comb(CODE_N, j) * p_b ** j * (1.0 - p_b) ** (CODE_N - j))
    return min(total, 1.0)
