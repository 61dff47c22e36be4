"""TFHE parameter sets.

TFHE works over the discretized torus ``T = (1/2**32) Z / Z``; every
torus element is stored as a 32-bit integer (``Torus32``), exactly like
the reference TFHE library and TFHE-rs.  A parameter set fixes:

* ``lwe_n`` — the dimension of the "small" LWE ciphertexts that carry
  individual bits between gates,
* ``tlwe_n`` (``N``) and ``tlwe_k`` — the ring dimension and module rank
  of the TLWE/TGSW ciphertexts used inside bootstrapping,
* the gadget decomposition (``bg_bit``, ``bg_levels``) used by the
  external product,
* the key-switch decomposition (``ks_base_bit``, ``ks_levels``),
* the noise standard deviations (in torus units, i.e. fractions of 1).

The ``test_*`` presets shrink dimensions so exact-arithmetic Python
bootstrapping runs in milliseconds; ``tfhe_lib()`` mirrors the reference
library's gate-bootstrapping set for cost accounting and (slow) smoke
tests.  Security scales with dimension and noise, so only ``tfhe_lib``
is meant to represent a cryptographically meaningful choice.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The discretized torus modulus: every torus element lives in
#: ``[0, 2**32)`` and represents the real ``x / 2**32 mod 1``.
TORUS_MOD = 1 << 32
TORUS_BITS = 32


@dataclass(frozen=True)
class TFHEParams:
    """Immutable TFHE parameter set (see module docstring)."""

    lwe_n: int
    tlwe_n: int
    tlwe_k: int = 1
    bg_bit: int = 8
    bg_levels: int = 2
    ks_base_bit: int = 2
    ks_levels: int = 8
    lwe_alpha: float = 0.0
    tlwe_alpha: float = 0.0
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.tlwe_n < 4 or self.tlwe_n & (self.tlwe_n - 1):
            raise ValueError(
                f"ring dimension must be a power of two >= 4, got {self.tlwe_n}"
            )
        if self.lwe_n < 1:
            raise ValueError(f"LWE dimension must be positive, got {self.lwe_n}")
        if self.bg_bit * self.bg_levels > TORUS_BITS:
            raise ValueError("gadget decomposition exceeds 32 torus bits")
        if self.ks_base_bit * self.ks_levels > TORUS_BITS:
            raise ValueError("key-switch decomposition exceeds 32 torus bits")

    @property
    def bg(self) -> int:
        """Gadget decomposition base ``Bg = 2**bg_bit``."""
        return 1 << self.bg_bit

    @property
    def lwe_ciphertext_bytes(self) -> int:
        """Serialized size of one gate-level LWE ciphertext (4 bytes per
        torus element, ``lwe_n`` mask elements plus the body)."""
        return 4 * (self.lwe_n + 1)

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @staticmethod
    def test_tiny() -> "TFHEParams":
        """Smallest functional set: noiseless, for algorithm unit tests."""
        return TFHEParams(
            lwe_n=4,
            tlwe_n=32,
            bg_bit=8,
            bg_levels=2,
            ks_base_bit=4,
            ks_levels=4,
            lwe_alpha=0.0,
            tlwe_alpha=0.0,
            name="test-tiny",
        )

    @staticmethod
    def test_small(noise: bool = True) -> "TFHEParams":
        """Small set with genuine (reduced) noise; bootstraps in ~10 ms.

        The noise rates are far below what the reduced dimensions would
        need for security — they are chosen so the decomposition noise
        plus fresh noise stays well inside the 1/16 gate margin, letting
        tests assert exact gate outputs while still exercising the noise
        paths.
        """
        return TFHEParams(
            lwe_n=16,
            tlwe_n=64,
            bg_bit=8,
            bg_levels=2,
            ks_base_bit=4,
            ks_levels=6,
            lwe_alpha=2.0 ** -20 if noise else 0.0,
            tlwe_alpha=2.0 ** -25 if noise else 0.0,
            name="test-small",
        )

    @staticmethod
    def tfhe_lib() -> "TFHEParams":
        """The reference TFHE library's default gate-bootstrapping set.

        n = 630, N = 1024, k = 1, Bg = 2**7 with l = 3 levels, key switch
        base 2**2 with 8 levels, and the published noise rates.  Used for
        cost accounting (ciphertext sizes, per-gate operation counts) and
        marked-slow smoke tests; a single exact-arithmetic bootstrap at
        this size takes seconds in Python.
        """
        return TFHEParams(
            lwe_n=630,
            tlwe_n=1024,
            bg_bit=7,
            bg_levels=3,
            ks_base_bit=2,
            ks_levels=8,
            lwe_alpha=3.05e-5,
            tlwe_alpha=3.73e-9,
            name="tfhe-lib",
        )
