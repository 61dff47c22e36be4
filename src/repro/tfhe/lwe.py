"""Torus LWE — the ciphertext form that carries individual bits.

An LWE sample under key ``s in {0,1}^n`` is ``(a, b)`` with ``a``
uniform in ``T^n`` and ``b = <a, s> + mu + e``.  The *phase*
``b - <a, s>`` recovers ``mu + e``; gates interpret the sign of the
phase (messages are ``+-1/8`` on the torus).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import TORUS_MOD, TFHEParams
from .torus import from_torus, gaussian_torus, to_torus, uniform_torus

#: Gate-level message encoding: true -> +1/8, false -> -1/8.
MU_BIT = to_torus(1, 8)


@dataclass
class LweKey:
    """Binary LWE secret key."""

    params: TFHEParams
    s: np.ndarray  # shape (n,), entries in {0, 1}

    @staticmethod
    def generate(params: TFHEParams, rng: np.random.Generator) -> "LweKey":
        return LweKey(params, rng.integers(0, 2, params.lwe_n, dtype=np.int64))

    @property
    def n(self) -> int:
        return len(self.s)


@dataclass
class LweSample:
    """An LWE ciphertext ``(a, b)`` with Torus32 entries."""

    a: np.ndarray  # shape (n,)
    b: int

    def copy(self) -> "LweSample":
        return LweSample(self.a.copy(), self.b)

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def serialized_bytes(self) -> int:
        return 4 * (self.n + 1)

    # -- linear homomorphic structure ----------------------------------

    def __add__(self, other: "LweSample") -> "LweSample":
        return LweSample(
            np.mod(self.a + other.a, TORUS_MOD),
            (self.b + other.b) % TORUS_MOD,
        )

    def __sub__(self, other: "LweSample") -> "LweSample":
        return LweSample(
            np.mod(self.a - other.a, TORUS_MOD),
            (self.b - other.b) % TORUS_MOD,
        )

    def __neg__(self) -> "LweSample":
        return LweSample(np.mod(-self.a, TORUS_MOD), (-self.b) % TORUS_MOD)

    def scale(self, k: int) -> "LweSample":
        """Multiply by a small known integer (used by XOR's factor 2)."""
        return LweSample(np.mod(self.a * k, TORUS_MOD), (self.b * k) % TORUS_MOD)

    @staticmethod
    def trivial(mu: int, n: int) -> "LweSample":
        """Noiseless encryption of ``mu`` under any key: ``a = 0``."""
        return LweSample(np.zeros(n, dtype=np.int64), mu % TORUS_MOD)


def lwe_encrypt(
    mu: int, key: LweKey, rng: np.random.Generator, alpha: float | None = None
) -> LweSample:
    """Encrypt the torus message ``mu`` under ``key``."""
    if alpha is None:
        alpha = key.params.lwe_alpha
    a = uniform_torus(rng, key.n)
    noise = int(gaussian_torus(rng, alpha, 1)[0])
    b = (int(np.dot(a, key.s) % TORUS_MOD) + mu + noise) % TORUS_MOD
    return LweSample(a, b)


def lwe_phase(sample: LweSample, key: LweKey) -> int:
    """The phase ``b - <a, s>`` — message plus noise."""
    return (sample.b - int(np.dot(sample.a, key.s) % TORUS_MOD)) % TORUS_MOD


def lwe_decrypt_bit(sample: LweSample, key: LweKey) -> int:
    """Decrypt a gate-level sample: positive phase -> 1, negative -> 0."""
    return 1 if from_torus(lwe_phase(sample, key)) > 0 else 0


def encrypt_bit(bit: int, key: LweKey, rng: np.random.Generator) -> LweSample:
    """Encrypt a Boolean value using the ``+-1/8`` gate encoding."""
    mu = MU_BIT if bit & 1 else (-MU_BIT) % TORUS_MOD
    return lwe_encrypt(mu, key, rng)
