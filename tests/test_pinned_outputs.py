"""Exact outputs at fixed seeds, pinned by SHA-256.

Ring arithmetic is exact mod q, so a change of representation or of the
transform schedule must leave every key, ciphertext and channel offset
byte-identical.  Each case hashes the serialised public and secret keys,
the clean ciphertext and the session's ciphertext offsets at a 6 / -10 dB
plan (the public key of v1 travels at 6 / 6 dB, as in ``wkyber exchange``).
The baseline scheme is pinned by its key pair and compressed ciphertext.
The CSVs of the analysis verbs that print the channel law are pinned the
same way, so a change of its representation must leave them byte-identical.
So are ``exchange`` and ``ker`` CSVs whose sessions fail blocks on both
legs, so a change of the wire codec must leave them byte-identical too.
The ``ber``, ``codeword-error`` and ``failure-prob`` CSVs pin the 4QAM
crossover to its last bit.  Two ``exchange`` runs outside the operating
window pin stderr as well, so the policy warnings keep their wording and
order.
"""

import hashlib

import numpy as np
import pytest

from wkyber.cli import main
from wkyber.core import pack12, squeeze
from wkyber.modem import ChannelPlan
from wkyber.params import PARAM_SETS
from wkyber.pke import (decrypt, encrypt, keygen, keygen_bytes, random_bits,
                        wk_encrypt)
from wkyber.protocol import kem_v1_encaps, run_sessions

SESSION_SEED = 20261018
CT_PLAN = ChannelPlan(6.0, -10.0)
PLANS = {"v1": (ChannelPlan(6.0, 6.0), CT_PLAN), "v2": (CT_PLAN, CT_PLAN)}

# (version, parameter set) -> sha256 of pk, sk, clean ciphertext, offsets
PINNED = {
    ("v1", 512): {
        "pk": "a5b65e78209574ea0434bf299b2ee0f9093263319f0b8846a9195d92c4b1530b",
        "sk": "6bf857b41370a9c30b23c10744c5a8783c5c4388a29296df385d011a5bf0db71",
        "ct": "3da8d63f1132c24154e83555c45aa3c34e1ee954a7506c684b3c343b7bf9ab1f",
        "offsets": "c6f8303e32dc2e143de1e0c8e3fd20ec421a57893e60fba147ab29b56076a301",
    },
    ("v1", 768): {
        "pk": "3ca4f05e19ddbb384841d01d6da072e465caf21e67fda02de766408a1c078584",
        "sk": "ba8b3f583b1057820f645d77f687ffb53515c25f141537eed4f9432e86fcaa8d",
        "ct": "73ee420b1810be83588bda699f2436b157bcff8639d990b361951169b75a1701",
        "offsets": "cfdf9160e67621341dd709144964714f7a4e2c1d395531c5e36fbe1cfb7613c4",
    },
    ("v1", 1024): {
        "pk": "42420f9380f239716b729c38980ac39bac86b139d20cf8bb7d741da5c354079c",
        "sk": "f4fc60b49411a56fdc6b7035f121d7f40a77bd4fe04c140733027ae72a807da0",
        "ct": "73271c5ac85292781e769686a533b2ae9abe43d5df8e1f92abc3b5db87bca8e0",
        "offsets": "1402cb76c83d364a428703b7898f3fc671e122f6768c92ea60c33d2487e64626",
    },
    ("v2", 512): {
        "pk": "2bd46781a93e14b2393d77bca6bb805bdabecf94f66ef4d69b61c6e7a9b88e68",
        "sk": "26e2ec57fb158680c9c444e1ab9557472b20163eae13d5f6e33e769860b8a231",
        "ct": "d47d5047d23d839cc787fbf2a7fee449c75b207c8c010ac57e0adcc3c05bef7b",
        "offsets": "1ea9248676169de4539156106ce9ffb9626d54a109d52e3a5506121c2185fe1d",
    },
    ("v2", 768): {
        "pk": "f6912af53dbc370274f69a283e478420ea2d02783d56b4dd655702e80d9562eb",
        "sk": "35f970e22ac2876d0b2ae261debfef45deae1c0c9f087e43e3cd4cc80ca03f4c",
        "ct": "972eeadb6e84963c1bc684b180c768840a9ce9d7a660195af345b876dbeb7f01",
        "offsets": "fd30c37e70d5cd79016a345ffd49bd7149f3fc892cba92808089c12eaa7fad0b",
    },
    ("v2", 1024): {
        "pk": "b03d84e24d9b49dfc98fc20a34dd1c1f0e982c6b673a5af589d5c34af02875a4",
        "sk": "386fd837121111de9f4c6d8a5499e004385a97aae5c3c79303935f39643f8781",
        "ct": "0c9d2a339ad2de96cc7cbb9f9ee96ce341154485fa65353831c8aa075819b4d5",
        "offsets": "49e2bc6f8192aa391f5452a8441736e838d250a3d6a8491e04da4bff1dcefd91",
    },
}

# parameter set -> sha256 of the baseline pk, sk and compressed u and v
PINNED_BASELINE = {
    512: {
        "pk": "0b30366c8e5f801c2b59e2e61b06a3deb8d84d195cf5a436c325458a3001db9d",
        "sk": "22d8fc0337a9cf0c13cb438afa3c63e7030107fc8db1776377c081ed53d74867",
        "u_c": "6be45bd9de71d9cd74422f41839e343d3ac25ebcddd7b2d1642d0c0628165995",
        "v_c": "002a58bcd0ff1785647bd33ea00dc716f9b80c69d75a4006701a43dc0399f02b",
    },
    768: {
        "pk": "3f0ff7f42ca8e6a554121b8a53a2c1e0e949b27052a62bbc266a0b269b718fab",
        "sk": "7a2849eb5f3e0d52c3682a1c6d4bf6eb418960db12aa61a0e5f052bb388d5d82",
        "u_c": "f3d9d858a6dc8abe968c5a0c36557e175cec0d6cbee9d54946696ffb3849fe3f",
        "v_c": "282ecfbbd64bc6ff36cd54203229a0f8505714e87aa049ccb2d15fc494a47c0a",
    },
    1024: {
        "pk": "3c3f48b8638a83d76704cde23f01f36cf8bd582d1aeb4c0b78255454c6435206",
        "sk": "470707d634d7abfcee401514f8f6fc57d22562d4a36b4abe631ccea408e8c48f",
        "u_c": "a3c670ee84fae32e93a92aef780e18363a0ce429ba8cdecb136f68f68b0eb880",
        "v_c": "295b9bf038acedb8dae44a055a40a2ed06a1e8dc1b91ed482ba3041cffca7c25",
    },
}

# CLI arguments -> sha256 of the CSV written to stdout
PINNED_CSV = {
    ("coeff-dist", "--snr-lsb", "-13"):
        "cae95a5a9bf0a7bcb26731da4abd0e959cface8d69d88b877931e02b337c459b",
    ("coeff-dist", "--snr-lsb", "inf"):
        "2c2b4a3fecf811744aedd681230fb509d765abfd2e96e6c41c9c3980441a8966",
    ("sigma",):
        "c9678abfe1b9ac5f4d5395d87376970b5dcd524a51ae8f97d84429a40ced50d9",
    # at 2 dB both legs fail blocks: mismatches, silent miscorrections and
    # sessions that match despite failed blocks, so the key leg's seed
    # blocks and both legs' decodes are pinned end to end
    ("exchange", "--version", "v1", "--snr-msb", "2", "--trials", "40",
     "--seed", "42"):
        "d8a8c51b6120e7b1a3cc4de2b0188b684410eb2b162710d066dde18c81848802",
    ("exchange", "--version", "v2", "--snr-msb", "2", "--trials", "40",
     "--seed", "42"):
        "5902057a09f651e0b58b02258508b1736f59e7aa4e91103ab1ddd50e7a007f78",
    ("ker", "--version", "v1", "--grid", "4:6:2", "--trials", "200",
     "--seed", "42", "--workers", "1"):
        "18232c11052e1964c3b11ea4199da980cd4e232e0600937caeeabe8401b1a88e",
    # the verbs that read the 4QAM crossover directly: its last bit moves
    # the flip draws and the printed analytic columns
    ("ber", "--trials", "20000", "--seed", "42"):
        "77697731ecbe875662475b211825a00069a47fd761fd3a6ae36db3e6e0779fbe",
    ("codeword-error", "--trials", "20000", "--seed", "42"):
        "bde27f3a7ffe6f86f2cfbdb726360014202d74589916be3fed949e83e1489af4",
    ("failure-prob",):
        "4269aecca984f6198681e5bd3ebf943a1e4a5d8e359625de2405282e250d9b49",
    ("failure-prob", "--snr-lsb", "-7"):
        "29785fe7b16b18a4041427b2f3a89f64304b1ca20005890f4099a6dcd4b1e01c",
}

# CLI arguments -> sha256 of stdout and of stderr; at 9 / -3 dB both paths
# leave the operating window, so v2 warns for the ciphertext plan and then
# the key plan, v1 for the ciphertext plan only
PINNED_STREAMS = {
    ("exchange", "--version", "v2", "--snr-msb", "9", "--snr-lsb", "-3",
     "--trials", "3", "--seed", "42"):
        ("9d3d7fb8da0c5348aace6046a38365dae50f475a84300c85fa0f797b292d7211",
         "c8f88d9b50f793f3422ff0064329754081b725a79d9260446c32e03462831cdf"),
    ("exchange", "--version", "v1", "--snr-msb", "9", "--snr-lsb", "-3",
     "--trials", "3", "--seed", "42"):
        ("577fee1f29fc04b53dccab5bca1e622b2e52f0df490e8d8beb3b9f2fb8d24734",
         "a1cc682e2626da5c437b5d6b2af3d28b6bc3f40af8b0ae4f393afcee16a2e34c"),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(version: str, bits: int) -> dict:
    params = PARAM_SETS[bits]
    v1 = version == "v1"
    # one stream, read as matrix seed | keygen noise | then v1's z and
    # message bits, or v2's message bits and coins
    nk = keygen_bytes(params, with_error=v1)
    rng = squeeze(bytes([bits & 0xFF]) * 32, version.encode() + b"-pin",
                  32 + nk + 64)
    seed_a, tail = rng[:32], rng[32 + nk:]
    pks, s = keygen([seed_a], [rng[32:32 + nk]], params, with_error=v1)
    if v1:
        ct, _ = kem_v1_encaps(pks, random_bits([tail[32:]]), params)
    else:
        ct = wk_encrypt(pks, random_bits([tail[:32]]), [tail[32:]], params)
    offsets = run_sessions(version, params, PLANS[version], [SESSION_SEED],
                           collect_offsets=True).ct_error_offsets[0]
    assert offsets.shape == ((params.k + 1) * 256,)
    return {"pk": sha(seed_a + pack12(pks[1][0])), "sk": sha(pack12(s[0])),
            "ct": sha(pack12(ct[0])),
            "offsets": sha(offsets.astype("<i8").tobytes())}


def baseline_outputs(bits: int) -> dict:
    params = PARAM_SETS[bits]
    # one stream, read as matrix seed | keygen noise | message bits | coins
    nk = keygen_bytes(params)
    rng = squeeze(bytes([bits & 0xFF]) * 32, b"baseline-pin", 32 + nk + 64)
    seed_a = rng[:32]
    pks, s = keygen([seed_a], [rng[32:32 + nk]], params)
    msg = random_bits([rng[32 + nk:64 + nk]])
    u_c, v_c = encrypt(pks, msg, [rng[64 + nk:]], params)
    assert np.array_equal(decrypt(s, u_c, v_c, params), msg)
    return {"pk": sha(seed_a + pack12(pks[1][0])), "sk": sha(pack12(s[0])),
            "u_c": sha(u_c[0].astype("<i8").tobytes()),
            "v_c": sha(v_c[0].astype("<i8").tobytes())}


@pytest.mark.parametrize("version, bits", sorted(PINNED))
def test_outputs_unchanged(version, bits):
    assert outputs(version, bits) == PINNED[(version, bits)]


@pytest.mark.parametrize("bits", sorted(PINNED_BASELINE))
def test_baseline_outputs_unchanged(bits):
    assert baseline_outputs(bits) == PINNED_BASELINE[bits]


def test_every_case_pinned():
    assert sorted(PINNED) == [(v, b) for v in ("v1", "v2")
                              for b in (512, 768, 1024)]
    assert sorted(PINNED_BASELINE) == [512, 768, 1024]


def test_offsets_not_trivial():
    # the 6 dB plan is meant to exercise the exposed path, not a noiseless one
    offsets = run_sessions("v1", PARAM_SETS[768], PLANS["v1"], [SESSION_SEED],
                           collect_offsets=True).ct_error_offsets[0]
    assert np.count_nonzero(offsets) > 0


@pytest.mark.parametrize("argv", sorted(PINNED_CSV), ids=" ".join)
def test_cli_csv_unchanged(capsys, argv):
    assert main(list(argv)) == 0
    assert sha(capsys.readouterr().out.encode()) == PINNED_CSV[argv]


@pytest.mark.parametrize("argv", sorted(PINNED_STREAMS), ids=" ".join)
def test_cli_streams_unchanged(capsys, argv):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert (sha(captured.out.encode()),
            sha(captured.err.encode())) == PINNED_STREAMS[argv]
