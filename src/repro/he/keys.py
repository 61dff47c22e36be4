"""Key material for the BFV scheme: secret, public and relinearization
keys, plus the generator that samples them.

Relinearization keys use base-``T`` digit decomposition (``T = 2**w``):
``rlk[i] = (-(a_i * s + e_i) + T^i * s^2,  a_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .params import BFVParams
from .poly import RingContext, RingPoly


@dataclass
class SecretKey:
    params: BFVParams
    s: RingPoly


@dataclass
class PublicKey:
    """Encryption key pair ``(pk0, pk1) = (-(a s) - e, a)``."""

    params: BFVParams
    pk0: RingPoly
    pk1: RingPoly


@dataclass
class RelinKey:
    """Key-switching key from ``s^2`` back to ``s``."""

    params: BFVParams
    base_bits: int
    components: List[Tuple[RingPoly, RingPoly]] = field(default_factory=list)

    @property
    def num_digits(self) -> int:
        return len(self.components)


class KeyGenerator:
    """Samples all key material for a parameter set.

    A fixed ``seed`` makes key generation reproducible, which the tests
    and the deterministic index-generation mode rely on.
    """

    def __init__(self, params: BFVParams, seed: int | None = None):
        self.params = params
        self.ring = RingContext(params.n, params.q)
        self._rng = np.random.default_rng(seed)

    def secret_key(self) -> SecretKey:
        return SecretKey(self.params, self.ring.random_ternary(self._rng))

    def public_key(self, sk: SecretKey) -> PublicKey:
        a = self.ring.random_uniform(self._rng)
        e = self.ring.random_error(self._rng, self.params.sigma)
        pk0 = -(a * sk.s) - e
        return PublicKey(self.params, pk0, a)

    def relin_key(self, sk: SecretKey, base_bits: int = 16) -> RelinKey:
        s_squared = sk.s * sk.s
        components = self._key_switch_components(sk, s_squared, base_bits)
        return RelinKey(self.params, base_bits, components)

    def _key_switch_components(
        self, sk: SecretKey, target: RingPoly, base_bits: int
    ) -> List[Tuple[RingPoly, RingPoly]]:
        """Build ``(-(a_i s + e_i) + T^i * target, a_i)`` for each digit i."""
        q = self.params.q
        num_digits = (q.bit_length() + base_bits - 1) // base_bits
        components = []
        for i in range(num_digits):
            power = pow(1 << base_bits, i, q)
            a = self.ring.random_uniform(self._rng)
            e = self.ring.random_error(self._rng, self.params.sigma)
            body = -(a * sk.s) - e + target.scalar_mul(power)
            components.append((body, a))
        return components


def generate_keys(
    params: BFVParams,
    seed: int | None = None,
    *,
    relin: bool = False,
) -> Tuple[SecretKey, PublicKey, RelinKey | None]:
    """One-call helper used throughout examples and tests."""
    gen = KeyGenerator(params, seed)
    sk = gen.secret_key()
    pk = gen.public_key(sk)
    rlk = gen.relin_key(sk) if relin else None
    return sk, pk, rlk
