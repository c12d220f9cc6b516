"""BCH decode failures and miscorrections at fixed seeds, pinned by SHA-256.

The pins in ``test_pinned_outputs.py`` run at 6 dB, where no block fails to
decode.  These run the block path at MSB SNRs low enough that many blocks
carry more than five flipped bits, so both outcomes beyond the code's
capability occur: a reported decode failure (the block keeps its
uncorrected systematic bits) and a silent miscorrection onto another
codeword.  A change of decoder must leave every word and flag unchanged.
"""

import hashlib

import numpy as np
import pytest

from wkyber.cli import main
from wkyber.modem import NoiseSource
from wkyber.transport import receive_blocks, send_blocks

WORDS = 20_000

# MSB SNR (dB) -> sha256 of the decoded w10 words (<i8) and failure mask (u1)
PINNED_BLOCKS = {
    -5.0: "8996fd4fddaf6f33170b7c4ee139a0b3fadfc6aa50af95084ce5b0d7355b86da",
    0.0: "da4fe6df20a6fa3e46dd6c6c4a2926100fe3521609f3fc8ee28505e9d1da2a3b",
    2.0: "abc88918fe4d971de46922dee42a6b89573173bc14d120c0674366f9ccf60cd7",
}

# sha256 of `wkyber codeword-error --grid -2:4:1 --trials 5000`
PINNED_CODEWORD_ERROR_CSV = (
    "6edb282b292325d807fd62d14486a88d20efe80d8c511a8748ef1df548617bea")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def received(snr_db: float):
    sent = np.random.default_rng(20261018).integers(0, 1 << 10, WORDS)
    noise = NoiseSource(7000 + int(snr_db))
    got, failed = receive_blocks(send_blocks(sent, snr_db, noise), WORDS)
    return sent, got, failed


@pytest.mark.parametrize("snr_db", sorted(PINNED_BLOCKS))
def test_receive_blocks_unchanged(snr_db):
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
