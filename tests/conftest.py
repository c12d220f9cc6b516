"""Shared test oracles: the schoolbook ring product, independent of the
transform in ``core``, the decryption noise law by untrimmed direct
convolution, independent of the tilted engine in ``reliability``, and the
ciphertext offsets of a session run, read off its ciphertext leg."""

from unittest import mock

import numpy as np
import pytest

from wkyber import protocol
from wkyber.core import centered
from wkyber.params import N, Q
from wkyber.transport import send_coeffs


def poly_mul_schoolbook(a, b):
    """a b in Z_q[x]/(x^n + 1) in O(n^2): the oracle of core.mul_sum."""
    prod = np.convolve(a, b)  # worst coeff 256*3328^2 < 2^63
    folded = prod[:N].copy()
    folded[:N - 1] -= prod[N:]  # x^n = -1
    return folded % Q


def power(law, times):
    """times-fold self-convolution of law by repeated squaring, every
    operation an exact IntDist.convolve (nothing trimmed)."""
    acc, square = None, law
    while True:
        if times & 1:
            acc = square if acc is None else acc.convolve(square)
        times >>= 1
        if not times:
            return acc
        square = square.convolve(square)


def direct_noise_law(params, model):
    """The full law of the per-coefficient decryption noise
    e^T s' - s^T e_ct + e_dd (the secret is symmetric, so the sign of the
    ciphertext term does not matter)."""
    kn, secret = params.k * N, model.secret_dist
    key = power(secret.product(model.pk_error_dist), kn)
    rest = power(secret.product(model.ct_error_dist), kn)
    return key.convolve(rest).convolve(model.e_dd_dist)


@pytest.fixture(scope="session")
def noise_law():
    return direct_noise_law


def run_with_offsets(version, params, plans, seeds):
    """run_sessions(version, params, plans, seeds) and its (S, (k + 1) *
    256) ciphertext offsets, the centred received minus sent words of every
    send_coeffs call, concatenated in call order."""
    calls = []

    def recorder(coeffs, plan, noises):
        words, failures = send_coeffs(coeffs, plan, noises)
        calls.append(centered(words - coeffs).reshape(len(coeffs), -1))
        return words, failures

    with mock.patch.object(protocol, "send_coeffs", recorder):
        rec = protocol.run_sessions(version, params, plans, seeds)
    return rec, np.concatenate(calls)


@pytest.fixture(scope="session")
def sessions_with_offsets():
    return run_with_offsets
