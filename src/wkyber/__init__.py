"""Module-LWE encryption carried by a simulated wireless physical layer.

The baseline scheme samples its LWE noise; the two wireless variants let a
4QAM/AWGN channel inject it instead, BCH-protecting the ten significant bits
of every 12-bit ring coefficient and exposing the two low bits at low SNR.
The package bundles the full stack (ring arithmetic, modem, BCH codec,
coefficient transport, protocols) plus reliability analysis tooling and the
``wkyber`` command-line interface.
"""

__version__ = "0.1.0"
