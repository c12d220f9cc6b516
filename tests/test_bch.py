import functools
import math
import os
import random
import subprocess
import sys
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

import wkyber
from wkyber import bch
from wkyber.bch import (CODE_K, CODE_N, CODE_T, ENCODE_TABLE, GENERATOR,
                        PARITY_BITS, codeword_error_prob, decode_words)

# oracle: GF(32) on the primitive polynomial x^5 + x^2 + 1, as log/antilog
# tables, and the BCH generator derived from it
EXP = [0] * 31
LOG = [0] * 32
_x = 1
for _i in range(31):
    EXP[_i], LOG[_x] = _x, _i
    _x <<= 1
    if _x & 32:
        _x ^= 0b100101


def gf_mul(a: int, b: int) -> int:
    return 0 if a == 0 or b == 0 else EXP[(LOG[a] + LOG[b]) % 31]


def poly2_mul(a: int, b: int) -> int:
    """Carry-less product of binary polynomials packed as ints."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly2_mod(a: int, g: int) -> int:
    """Remainder of binary polynomials packed as ints, by long division."""
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


def bch_encode(msg: int) -> int:
    """The table's codeword of one message, as a Python int."""
    return int(ENCODE_TABLE[msg])


def minimal_polynomial(exponent: int) -> int:
    """Minimal polynomial over GF(2) of alpha^exponent, as a packed int."""
    coset = []
    e = exponent % 31
    while e not in coset:
        coset.append(e)
        e = (2 * e) % 31
    poly = [1]  # coefficients over GF(32), index = degree
    for j in coset:
        nxt = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            nxt[d + 1] ^= c                  # x * poly
            nxt[d] ^= gf_mul(EXP[j], c)      # root * poly
        poly = nxt
    assert all(c in (0, 1) for c in poly), "minimal polynomial not binary"
    return sum(c << d for d, c in enumerate(poly))


def derive_generator() -> int:
    """lcm of the minimal polynomials of alpha^1, alpha^3, ..., alpha^9."""
    g = 1
    for mp in {minimal_polynomial(e) for e in (1, 3, 5, 7, 9)}:
        g = poly2_mul(g, mp)
    return g


def gf_poly_eval(poly_int: int, exp: int) -> int:
    """Evaluate a binary polynomial at alpha^exp over GF(32)."""
    acc = 0
    for d in range(poly_int.bit_length()):
        if (poly_int >> d) & 1:
            acc ^= EXP[(exp * d) % 31]
    return acc


class TestGenerator:
    def test_degree(self):
        assert GENERATOR.bit_length() - 1 == CODE_N - CODE_K == 20

    def test_roots(self):
        for i in range(1, 2 * CODE_T + 1):
            assert gf_poly_eval(GENERATOR, i) == 0

    def test_divides_x31_minus_1(self):
        assert poly2_mod((1 << 31) | 1, GENERATOR) == 0

    def test_stable(self):
        assert derive_generator() == GENERATOR == 0x1626D5


class TestEncode:
    def test_zero(self):
        assert bch_encode(0) == 0

    def test_linearity(self):
        rnd = random.Random(1)
        for _ in range(200):
            a, b = rnd.randrange(1 << CODE_K), rnd.randrange(1 << CODE_K)
            assert bch_encode(a) ^ bch_encode(b) == bch_encode(a ^ b)

    def test_systematic(self):
        rnd = random.Random(2)
        for _ in range(50):
            msg = rnd.randrange(1 << CODE_K)
            assert bch_encode(msg) >> (CODE_N - CODE_K) == msg

    def test_min_weight_generators(self):
        # linearity makes the single-bit messages enough for d_min >= 2t+1
        for i in range(CODE_K):
            assert bin(bch_encode(1 << i)).count("1") >= 2 * CODE_T + 1

    def test_table_is_systematic_and_divisible_by_g(self):
        # every one of the 2,048 entries: its top 11 bits are the message,
        # and it is a multiple of g, so a codeword
        assert ENCODE_TABLE.shape == (1 << CODE_K,)
        assert ENCODE_TABLE.dtype == np.int64
        assert not ENCODE_TABLE.flags.writeable
        for msg, cw in enumerate(ENCODE_TABLE.tolist()):
            assert cw >> PARITY_BITS == msg and cw < 1 << CODE_N
            assert poly2_mod(cw, GENERATOR) == 0


class TestDecode:
    def test_error_free(self):
        rnd = random.Random(3)
        msgs = [rnd.randrange(1 << CODE_K) for _ in range(100)]
        assert as_tuples(decode_words(ENCODE_TABLE[msgs])) == \
            [(msg, 0, False) for msg in msgs]

    def test_single_bit_exhaustive(self):
        rnd = random.Random(4)
        msgs = [rnd.randrange(1 << CODE_K) for _ in range(50)]
        words = [bch_encode(msg) ^ (1 << pos)
                 for msg in msgs for pos in range(CODE_N)]
        assert as_tuples(decode_words(words)) == \
            [(msg, 1, False) for msg in msgs for _ in range(CODE_N)]

    def test_double_bit_exhaustive(self):
        rnd = random.Random(5)
        msg = rnd.randrange(1 << CODE_K)
        cw = bch_encode(msg)
        words = [cw ^ (1 << p1) ^ (1 << p2)
                 for p1, p2 in combinations(range(CODE_N), 2)]
        assert as_tuples(decode_words(words)) == [(msg, 2, False)] * len(words)

    @pytest.mark.parametrize("weight", [3, 4, 5])
    def test_random_patterns_within_capability(self, weight):
        rnd = random.Random(60 + weight)
        msgs, words = [], []
        for _ in range(3400):
            msgs.append(rnd.randrange(1 << CODE_K))
            words.append(flip(bch_encode(msgs[-1]),
                              rnd.sample(range(CODE_N), weight)))
        assert as_tuples(decode_words(words)) == \
            [(msg, weight, False) for msg in msgs]

    def test_beyond_capability_never_silently_correct(self):
        # > t errors: either a reported failure or a *different* codeword
        rnd = random.Random(7)
        msgs, words = [], []
        for _ in range(500):
            msgs.append(rnd.randrange(1 << CODE_K))
            words.append(flip(bch_encode(msgs[-1]),
                              rnd.sample(range(CODE_N), CODE_T + 2)))
        got, _, failed = decode_words(words)
        assert (got != msgs)[~failed].all()
        assert failed.any()

    def test_rejects_wide_word(self):
        with pytest.raises(ValueError):
            decode_words(1 << CODE_N)


CODEWORDS = [int(c) for c in ENCODE_TABLE]


def nearest_codeword(received: int):
    """Brute-force oracle: (message, corrections, failed) by scanning all
    2,048 codewords for one within distance t."""
    dist, cw = min((bin(received ^ c).count("1"), c) for c in CODEWORDS)
    if dist <= CODE_T:
        return cw >> (CODE_N - CODE_K), dist, False
    return received >> (CODE_N - CODE_K), 0, True


def flip(codeword: int, positions) -> int:
    for pos in positions:
        codeword ^= 1 << pos
    return codeword


# a codeword with 0-11 flipped bits, or a uniform 31-bit word
received_words = st.one_of(
    st.builds(flip, st.sampled_from(CODEWORDS),
              st.sets(st.integers(0, CODE_N - 1), max_size=2 * CODE_T + 1)),
    st.integers(0, (1 << CODE_N) - 1))


def as_tuples(decoded):
    msgs, corrections, failed = decoded
    return [(int(m), int(c), bool(f))
            for m, c, f in zip(msgs, corrections, failed)]


class TestDecodeWords:
    @given(st.lists(received_words, max_size=24), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_and_batch_splits(self, words, data):
        batch = as_tuples(decode_words(np.array(words, dtype=np.int64)))
        assert batch == [nearest_codeword(w) for w in words]
        assert batch == [as_tuples(decode_words([w]))[0] for w in words]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(words)),
                                         max_size=4)))
        pieces = [words[a:b] for a, b in zip([0] + cuts, cuts + [len(words)])]
        assert batch == [t for piece in pieces
                         for t in as_tuples(decode_words(piece))]

    def test_empty(self):
        for dtype in (np.int64, np.float64, np.uint32, bool, object):
            msgs, corrections, failed = decode_words(np.array([], dtype=dtype))
            assert msgs.shape == corrections.shape == failed.shape == (0,)

    @pytest.mark.parametrize("word", [-1, 1 << CODE_N])
    def test_rejects_wide_word(self, word):
        with pytest.raises(ValueError):
            decode_words([0, word])

    @pytest.mark.parametrize("words", [np.array([1.5]), np.array([1.0]),
                                       [0, 2.5], np.array([True])])
    def test_rejects_non_integer(self, words):
        with pytest.raises(ValueError):
            decode_words(words)
        with pytest.raises(ValueError):   # a lone value, not in a list
            decode_words(np.ravel(words)[-1])

    def test_leaves_int64_input_unchanged(self):
        # corrections are XORed into a copy, never into the caller's array
        words = np.array([CODEWORDS[5] ^ 0b1001, CODEWORDS[9]], dtype=np.int64)
        kept = words.copy()
        msgs, corrections, failed = decode_words(words)
        assert msgs.tolist() == [5, 9] and corrections.tolist() == [2, 0]
        assert np.array_equal(words, kept)

    def test_error_table(self):
        keys = bch._error_table()
        size = sum(math.comb(CODE_N, w) for w in range(1, CODE_T + 1))
        assert len(keys) == size + 1 and size == 206367
        table, sentinel = keys[:-1], keys[-1]
        syndromes, patterns = table >> 35, table & ((1 << CODE_N) - 1)
        # distinct syndromes: no two patterns of weight <= t share a coset
        assert (np.diff(syndromes) > 0).all()
        assert ((1 <= weight(patterns)) & (weight(patterns) <= CODE_T)).all()
        assert (table >> CODE_N & 7 == weight(patterns)).all()
        assert (bch._syndrome(patterns) == syndromes).all()
        # the sentinel ends every search past the last syndrome
        assert sentinel >> 35 >= 1 << (CODE_N - CODE_K)
        assert not keys.flags.writeable

    def test_table_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(wkyber.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import wkyber; from wkyber import bch; "
                "assert bch._error_table.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=60)


def weight(words: np.ndarray) -> np.ndarray:
    """Number of set bits of each word."""
    as_bytes = np.asarray(words, dtype="<i8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1).sum(axis=1)


def patterns_of_weight(w: int) -> np.ndarray:
    """Every 31-bit word of weight w, in combinations order."""
    n = math.comb(CODE_N, w)
    positions = np.fromiter(
        chain.from_iterable(combinations(range(CODE_N), w)),
        dtype=np.int8, count=n * w).reshape(n, w)
    patterns = np.zeros(n, dtype=np.int64)
    for column in positions.T:
        patterns |= 1 << column.astype(np.int64)
    return patterns


@functools.cache
def leader_table():
    """(sorted syndromes, patterns, weights) of the 31,931 patterns of
    weight 1..t with bit 0 set; every correctable error is a rotation of
    one of them."""
    levels = [np.fromiter((sum(1 << j for j in rest) | 1
                           for rest in combinations(range(1, CODE_N), w)),
                          dtype=np.int64) for w in range(CODE_T)]
    patterns = np.concatenate(levels)
    weights = np.repeat(np.arange(1, CODE_T + 1), [len(lv) for lv in levels])
    syndromes = bch._syndrome(patterns)
    order = np.argsort(syndromes)
    return syndromes[order], patterns[order], weights[order]


def rotate_right(words: np.ndarray, shift) -> np.ndarray:
    """Cyclic shift x^-shift of 31-bit words; shift may broadcast."""
    mask = (1 << CODE_N) - 1
    return ((words >> shift) | (words << (CODE_N - shift))) & mask


def meggitt_decode(words):
    """Oracle: Meggitt's cyclic decoder, the decoder the direct error table
    replaced.  The code is cyclic, so rotation m of a word carries its error
    rotated by m; each of the 31 rotations is looked up in leader_table(),
    and a hit at rotation m is the leader rotated back by m."""
    words = np.asarray(words, dtype=np.int64)
    syndromes, patterns, weights = leader_table()
    rotated = bch._syndrome(rotate_right(words[:, None], np.arange(CODE_N)))
    pos = np.minimum(np.searchsorted(syndromes, rotated), len(syndromes) - 1)
    hit = syndromes[pos] == rotated
    found = hit.any(axis=1)
    m = hit.argmax(axis=1)
    leader = pos[np.arange(len(words)), m]
    back = rotate_right(patterns[leader], (CODE_N - m) % CODE_N)
    errors = np.where(found, back, 0)
    corrections = np.where(found, weights[leader], 0)
    failed = ~found & (bch._syndrome(words) != 0)
    return (words ^ errors) >> PARITY_BITS, corrections, failed


class TestNeighbourhood:
    """Every word near sampled codewords, decoded in one batch."""

    def test_every_word_within_t(self):
        rng = np.random.default_rng(11)
        for msg in rng.choice(1 << CODE_K, 3, replace=False):
            for distance in range(1, CODE_T + 1):
                msgs, corrections, failed = decode_words(
                    ENCODE_TABLE[msg] ^ patterns_of_weight(distance))
                assert (msgs == msg).all() and not failed.any()
                assert (corrections == distance).all()

    def test_every_word_at_distance_6(self):
        msg = 1337
        received = ENCODE_TABLE[msg] ^ patterns_of_weight(CODE_T + 1)
        assert len(received) == 736281
        msgs, corrections, failed = decode_words(received)
        ok = ~failed
        distance = weight(received[ok] ^ ENCODE_TABLE[msgs[ok]])
        assert (distance == corrections[ok]).all()
        assert (distance <= CODE_T).all()
        # such a word is within t of a codeword c exactly when c sits at the
        # minimum distance 11 and the word's 6 errors are among their 11
        # differing bits: A_11 * C(11, 6) words, and the rest must fail
        a_11 = int((weight(ENCODE_TABLE) == 2 * CODE_T + 1).sum())
        assert ok.sum() == a_11 * math.comb(2 * CODE_T + 1, CODE_T + 1) > 0

    @pytest.mark.parametrize("distance", [6, 7])
    def test_matches_meggitt_beyond_t(self, distance):
        rnd = random.Random(90 + distance)
        words = [flip(rnd.choice(CODEWORDS),
                      rnd.sample(range(CODE_N), distance))
                 for _ in range(3000)]
        decoded = as_tuples(decode_words(words))
        assert decoded == as_tuples(meggitt_decode(words))
        assert {failed for _, _, failed in decoded} == {False, True}


class TestCodewordErrorProb:
    def test_endpoints(self):
        assert codeword_error_prob(0.0) == 0.0
        assert codeword_error_prob(1.0) == 1.0

    def test_exact_tail_at_1_percent(self):
        p = 0.01
        direct = sum(math.comb(31, j) * p ** j * (1 - p) ** (31 - j)
                     for j in range(6, 32))
        assert abs(codeword_error_prob(p) - direct) < 1e-18

    @pytest.mark.parametrize("p", [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3])
    def test_matches_incomplete_beta(self, p):
        a = codeword_error_prob(p)
        b = float(betainc(CODE_T + 1, CODE_N - CODE_T, p))
        assert abs(a - b) <= 1e-12 * max(a, b, 1e-30) + 1e-18

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            codeword_error_prob(1.5)
