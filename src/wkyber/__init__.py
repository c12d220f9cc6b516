"""Module-LWE encryption carried by a simulated wireless physical layer.

The baseline scheme samples its LWE noise; the two wireless variants let a
4QAM/AWGN channel inject it instead, BCH-protecting the ten significant bits
of every 12-bit ring coefficient and exposing the two low bits at low SNR.
The package bundles the full stack (ring arithmetic, modem, BCH codec,
coefficient transport, protocols) plus reliability analysis tooling and the
``wkyber`` command-line interface.
"""

from .params import KYBER512, KYBER768, KYBER1024, PARAM_SETS, ParamSet, get_params
from .core import (XofStream, centered, compress, decompress, gen_matrices,
                   matvec_mul, poly_mul, poly_mul_schoolbook)
from .pke import decrypt, encrypt, keygen, random_bits, wk_decrypt, wk_encrypt
from .modem import (ChannelPlan, NoiseSource, ber_4qam, demodulate_symbols,
                    modulate_words, q_function, transmit)
from .bch import bch_decode, bch_encode, codeword_error_prob, decode_words
from .dist import IntDist, PrecisionLossError
from .transport import Frame, coeff_error_dist, dist_stddev, send_coeffs
from .protocol import (SessionTranscript, kem_v1_decaps, kem_v1_encaps,
                       kem_v1_keygen, run_sessions, snr_warnings, v2_keygen)
from .reliability import (ErrorModel, KerPoint, compression_error_dist,
                          failure_probability, ker_monte_carlo, sigma_vs_snr,
                          standard_kyber_model, wkyber_v1_model, wkyber_v2_model)

__version__ = "0.1.0"
