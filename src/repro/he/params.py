"""BFV parameter sets.

The paper (§4.2) presents CIPHERMATCH with ``n = 1024``, ciphertext
coefficient size ``q = 32`` bits and plaintext coefficient size
``t = 16`` bits; any HE-standard-compliant set works.  We keep the same
convention: ``q`` and ``t`` here are *moduli* (``2**32`` / ``2**16`` for
the paper set).  The exact-convolution multiplier (see
:mod:`repro.he.ntt`) supports arbitrary integer ``q``, so the
paper-literal power-of-two modulus is usable directly; NTT-prime moduli
are also supported and are slightly faster for Hom-Mult-heavy baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .primes import find_ntt_prime


@dataclass(frozen=True)
class BFVParams:
    """Immutable BFV parameter set.

    Attributes:
        n: ring dimension (power of two); polynomials have degree < n.
        q: ciphertext coefficient modulus.
        t: plaintext coefficient modulus.
        sigma: standard deviation of the (discrete-ish) error sampler.
        name: human-readable label used in logs and reports.
    """

    n: int
    q: int
    t: int
    sigma: float = 3.2
    name: str = "custom"

    def __post_init__(self) -> None:
        if self.n < 4 or self.n & (self.n - 1):
            raise ValueError(f"ring dimension must be a power of two >= 4, got {self.n}")
        if self.t < 2:
            raise ValueError(f"plaintext modulus must be >= 2, got {self.t}")
        if self.q <= self.t:
            raise ValueError(f"ciphertext modulus q={self.q} must exceed t={self.t}")

    @property
    def delta(self) -> int:
        """Plaintext scaling factor floor(q / t)."""
        return self.q // self.t

    @property
    def log_q(self) -> int:
        """Bits needed to store one coefficient in [0, q): for the
        paper's q = 2**32 this is exactly 32."""
        return (self.q - 1).bit_length()

    @property
    def plaintext_bits_per_coeff(self) -> int:
        """How many data bits one plaintext coefficient can pack (log2 t)."""
        return (self.t - 1).bit_length()

    @property
    def ciphertext_bytes(self) -> int:
        """Serialized size of one ciphertext: 2 polynomials, n coeffs, ceil(log q) bits."""
        coeff_bytes = (self.log_q + 7) // 8
        return 2 * self.n * coeff_bytes

    @property
    def plaintext_bytes(self) -> int:
        coeff_bytes = ((self.t - 1).bit_length() + 7) // 8
        return self.n * coeff_bytes

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------

    @staticmethod
    def paper() -> "BFVParams":
        """The parameter set the paper uses to present CIPHERMATCH.

        n = 1024, 32-bit ciphertext coefficients (q = 2**32), 16-bit
        plaintext coefficients (t = 2**16).  Note the paper itself says
        the algorithm adapts to any standard-compliant set; like the
        paper's presentation set, this one trades security margin for
        the exact 4x expansion-factor story (2x tuple + 2x coefficient
        growth).
        """
        return BFVParams(n=1024, q=1 << 32, t=1 << 16, name="paper-n1024")

    @staticmethod
    def test_small(n: int = 64) -> "BFVParams":
        """Small, fast set for unit tests (same 16-bit packing semantics)."""
        return BFVParams(n=n, q=1 << 32, t=1 << 16, name=f"test-n{n}")

    @staticmethod
    def arithmetic_baseline(n: int = 1024, t: int = 1 << 10) -> "BFVParams":
        """Parameters for the Yasuda-style arithmetic baseline.

        The baseline packs one bit per coefficient and computes Hamming
        distances, so plaintext values stay below the query length; a
        moderate ``t`` leaves room for depth-1 multiplication noise.
        A large NTT-friendly q gives the mult the budget it needs.
        """
        q = find_ntt_prime(60 if n >= 1024 else 40, 2 * n)
        return BFVParams(n=n, q=q, t=t, name=f"yasuda-n{n}")

    @staticmethod
    def boolean_baseline(n: int = 256) -> "BFVParams":
        """Parameters for the Boolean (TFHE stand-in) baseline: t = 2."""
        q = find_ntt_prime(60 if n >= 1024 else 45, 2 * n)
        return BFVParams(n=n, q=q, t=2, name=f"boolean-n{n}")

