"""BCH decode failures and miscorrections at fixed seeds, pinned by SHA-256.

The pins in ``test_pinned_outputs.py`` run at 6 dB, where no block fails to
decode.  These run the block path at MSB SNRs low enough that many blocks
carry more than five flipped bits, so both outcomes beyond the code's
capability occur: a reported decode failure (the block keeps its
uncorrected systematic bits) and a silent miscorrection onto another
codeword.  A change of decoder must leave every word and flag unchanged.
The words are 10-bit messages as a leg sends them, read back as a leg
reads them: the decoded message's low 10 bits.
"""

import hashlib

import numpy as np
import pytest

from wkyber.bch import CODE_N, CODE_T, ENCODE_TABLE, decode_words
from wkyber.cli import main
from wkyber.modem import NoiseSource, bit_error_prob, flip_masks

# MSB SNR (dB) -> words sent.  At 2 dB about 0.1% of blocks carry more than
# five flips and about one in eight of those miscorrects: 200,000 words
# expect about 24 miscorrections, where 20,000 expected 2.5 and could see 0
WORDS = {-5.0: 20_000, 0.0: 20_000, 2.0: 200_000}

# MSB SNR (dB) -> sha256 of the decoded w10 words (<i8) and failure mask (u1)
PINNED_BLOCKS = {
    -5.0: "f33b1e8dd2b2775d32702a3dddfb8b8c4759dc9bef4529ceefc8aa5791a04d4d",
    0.0: "b54002f038bd236d63dab4b2d653c7360cd6a3a13100cb7e538774e486e80983",
    2.0: "5d258bff3ba0ebd50a2b03f9020e5ce02c1932812a9629d4b41f3da53439f132",
}

# sha256 of `wkyber codeword-error --grid -2:4:1 --trials 5000`
PINNED_CODEWORD_ERROR_CSV = (
    "23e380cd81f645d3ea9b5b87b92d0f2a1523ba375fcee90ba2e1d0ace481f94c")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def received(snr_db: float):
    words = WORDS[snr_db]
    sent = np.random.default_rng(20261018).integers(0, 1 << 10, words)
    flips = flip_masks([NoiseSource(7000 + int(snr_db))],
                       [(words, CODE_N, bit_error_prob(snr_db))])[0]
    got, _, failed = decode_words(ENCODE_TABLE[sent] ^ flips)
    return sent, got & 0x3FF, failed


@pytest.mark.parametrize("snr_db", sorted(PINNED_BLOCKS))
def test_block_decodes_unchanged(snr_db):
    _, got, failed = received(snr_db)
    digest = sha(got.astype("<i8").tobytes() + failed.astype("u1").tobytes())
    assert digest == PINNED_BLOCKS[snr_db]


@pytest.mark.parametrize("snr_db", sorted(PINNED_BLOCKS))
def test_pins_reach_failures_and_miscorrections(snr_db):
    sent, got, failed = received(snr_db)
    assert failed.any()
    assert ((got != sent) & ~failed).any()


def test_codeword_error_csv_unchanged(capsys):
    assert main(["codeword-error", "--grid", "-2:4:1", "--trials", "5000"]) == 0
    out = capsys.readouterr().out
    assert sha(out.encode()) == PINNED_CODEWORD_ERROR_CSV


def test_codeword_error_counts_every_word_past_t_flips(capsys):
    # a word with at most t flips decodes to its own message and any other
    # word does not, so the empirical rate is the share of words past t
    # flips.  That includes a miscorrection onto a message whose leading
    # bit is set, which a comparison of the low 10 bits alone would miss
    # (4, 1 and 1 such words in these rows)
    trials, seed = 20_000, 42
    assert main(["codeword-error", "--grid", "-2:0:1", "--trials",
                 str(trials), "--seed", str(seed)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    for point, row in enumerate(rows):
        snr, _, rate = row.split(",")
        # the verb's flip draws: point p's noise source, one field of words
        flips = flip_masks([NoiseSource(seed * 31337 + point)],
                           [(trials, CODE_N, bit_error_prob(float(snr)))])[0]
        past_t = sum(bin(f).count("1") > CODE_T for f in flips.tolist())
        assert round(float(rate) * trials) == past_t, snr
