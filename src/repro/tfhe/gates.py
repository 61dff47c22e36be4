"""Bootstrapped Boolean gates — the TFHE public API.

Every two-input gate is one public linear combination of the input
samples followed by one gate bootstrap, exactly as in the reference
library; gate outputs are fresh ciphertexts, so circuits of unbounded
depth evaluate correctly (the property the paper credits the Boolean
approach with, §2.2).  NOT needs no gate: ``-sample`` negates a bit
without a bootstrap.
"""

from __future__ import annotations

import numpy as np

from .bootstrap import (
    BootstrappingKey,
    bootstrap,
    make_bootstrapping_key,
)
from .lwe import (
    MU_BIT,
    LweKey,
    LweSample,
    encrypt_bit,
    lwe_decrypt_bit,
)
from .params import TORUS_MOD, TFHEParams
from .tgsw import TGswKey
from .torus import to_torus


class TFHEContext:
    """Key generation plus the bootstrapped gate set.

    >>> ctx = TFHEContext(TFHEParams.test_tiny(), seed=1)
    >>> a, b = ctx.encrypt(1), ctx.encrypt(0)
    >>> ctx.decrypt(ctx.nand(a, b))
    1
    """

    def __init__(self, params: TFHEParams | None = None, seed: int | None = None):
        self.params = params or TFHEParams.test_small()
        self._rng = np.random.default_rng(seed)
        self.lwe_key = LweKey.generate(self.params, self._rng)
        self.tgsw_key = TGswKey.generate(self.params, self._rng)
        self.bsk: BootstrappingKey = make_bootstrapping_key(
            self.lwe_key, self.tgsw_key, self._rng
        )
        self.gate_counts = {
            "nand": 0,
            "and": 0,
            "or": 0,
            "xor": 0,
            "xnor": 0,
        }
        self.bootstrap_count = 0

    # -- encryption ------------------------------------------------------

    def encrypt(self, bit: int) -> LweSample:
        return encrypt_bit(bit, self.lwe_key, self._rng)

    def encrypt_bits(self, bits) -> list[LweSample]:
        return [self.encrypt(int(b)) for b in bits]

    def decrypt(self, sample: LweSample) -> int:
        return lwe_decrypt_bit(sample, self.lwe_key)

    # -- gate plumbing -----------------------------------------------------

    def _bootstrap(self, linear: LweSample) -> LweSample:
        self.bootstrap_count += 1
        return bootstrap(linear, MU_BIT, self.bsk)

    def _trivial(self, numerator: int, denominator: int) -> LweSample:
        mu = to_torus(numerator % denominator, denominator)
        return LweSample.trivial(mu, self.params.lwe_n)

    # -- gates -------------------------------------------------------------

    def nand(self, a: LweSample, b: LweSample) -> LweSample:
        """NAND: bootstrap(1/8 - a - b)."""
        self.gate_counts["nand"] += 1
        return self._bootstrap(self._trivial(1, 8) - a - b)

    def and_(self, a: LweSample, b: LweSample) -> LweSample:
        """AND: bootstrap(-1/8 + a + b)."""
        self.gate_counts["and"] += 1
        return self._bootstrap(self._trivial(-1, 8) + a + b)

    def or_(self, a: LweSample, b: LweSample) -> LweSample:
        """OR: bootstrap(1/8 + a + b)."""
        self.gate_counts["or"] += 1
        return self._bootstrap(self._trivial(1, 8) + a + b)

    def xor(self, a: LweSample, b: LweSample) -> LweSample:
        """XOR: bootstrap(1/4 + 2(a + b))."""
        self.gate_counts["xor"] += 1
        return self._bootstrap(self._trivial(1, 4) + (a + b).scale(2))

    def xnor(self, a: LweSample, b: LweSample) -> LweSample:
        """XNOR: bootstrap(-1/4 - 2(a + b)) — the string-match primitive."""
        self.gate_counts["xnor"] += 1
        return self._bootstrap(self._trivial(-1, 4) - (a + b).scale(2))

    # -- reductions ----------------------------------------------------------

    def and_reduce(self, bits: list[LweSample]) -> LweSample:
        """Balanced AND tree over >= 1 bits."""
        if not bits:
            raise ValueError("empty AND reduction")
        layer = list(bits)
        while len(layer) > 1:
            nxt = [
                self.and_(layer[i], layer[i + 1])
                for i in range(0, len(layer) - 1, 2)
            ]
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    # -- bookkeeping ----------------------------------------------------------

    def total_gates(self) -> int:
        return sum(self.gate_counts.values())
