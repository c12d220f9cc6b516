"""Parameter sets for the module-lattice schemes.

All three sets share the ring Z_q[x]/(x^n + 1) with q = 3329, n = 256 and
differ in the module rank k, the noise ranges (eta1, eta2) and the
ciphertext compression widths (d_u, d_v).
"""

from __future__ import annotations

from dataclasses import dataclass

Q = 3329
N = 256


@dataclass(frozen=True)
class ParamSet:
    name: str
    k: int
    eta1: int
    eta2: int
    du: int
    dv: int

    def __post_init__(self):
        if self.k not in (2, 3, 4):
            raise ValueError(f"unsupported module rank k={self.k}")


KYBER512 = ParamSet("kyber512", k=2, eta1=3, eta2=2, du=10, dv=4)
KYBER768 = ParamSet("kyber768", k=3, eta1=2, eta2=2, du=10, dv=4)
KYBER1024 = ParamSet("kyber1024", k=4, eta1=2, eta2=2, du=11, dv=5)

PARAM_SETS = {512: KYBER512, 768: KYBER768, 1024: KYBER1024}

