"""Polynomial ring ``R_q = Z_q[X] / (X^n + 1)``.

:class:`RingContext` owns the (n, q) pair and delegates arithmetic to
its :class:`~repro.he.backend.VectorizedBackend` — RNS/NTT
multiplication with NumPy butterflies and int64-safe CRT recombination;
forward transforms are cached on the polynomials so repeated products
against the same operand transform once.  :class:`RingPoly` is a thin
immutable-ish wrapper over a numpy ``int64`` coefficient vector reduced
to ``[0, q)``.

Coefficient moduli up to 2**62 are supported so that addition stays in
int64 without overflow.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backend import VectorizedBackend


class RingContext:
    """The ring ``Z_q[X]/(X^n+1)`` plus cached multiplication machinery."""

    def __init__(self, n: int, q: int):
        if n < 2 or n & (n - 1):
            raise ValueError(f"ring degree must be a power of two, got {n}")
        if q < 2:
            raise ValueError(f"modulus must be >= 2, got {q}")
        if q.bit_length() > 62:
            raise ValueError("moduli above 2**62 are not supported")
        self.n = n
        self.q = q
        self.backend = VectorizedBackend(n, q)

    # -- construction ---------------------------------------------------

    def make(self, coeffs: Sequence[int] | np.ndarray) -> "RingPoly":
        return RingPoly(self, self.backend.make(coeffs))

    def zero(self) -> "RingPoly":
        return RingPoly(self, np.zeros(self.n, dtype=np.int64))

    def constant(self, value: int) -> "RingPoly":
        coeffs = np.zeros(self.n, dtype=np.int64)
        coeffs[0] = value % self.q
        return RingPoly(self, coeffs)

    def monomial(self, degree: int, coefficient: int = 1) -> "RingPoly":
        """``coefficient * X^degree`` with negacyclic wraparound."""
        deg = degree % (2 * self.n)
        sign = 1
        if deg >= self.n:
            deg -= self.n
            sign = -1
        coeffs = np.zeros(self.n, dtype=np.int64)
        coeffs[deg] = (sign * coefficient) % self.q
        return RingPoly(self, coeffs)

    def draw_uniform(self, rng: np.random.Generator, rows: int) -> np.ndarray:
        """``(rows, n)`` uniform coefficients in ``[0, q)`` (q <= 2**62
        fits the int64 sampler)."""
        return rng.integers(0, self.q, size=(rows, self.n), dtype=np.int64)

    def random_uniform(self, rng: np.random.Generator) -> "RingPoly":
        return RingPoly(self, self.draw_uniform(rng, 1)[0])

    def draw_ternary(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform ternary coefficients ({-1, 0, 1}), centered as drawn."""
        return rng.integers(-1, 2, size=self.n, dtype=np.int64)

    def draw_error(
        self, rng: np.random.Generator, sigma: float, rows: int | None = None
    ) -> np.ndarray:
        """Rounded-Gaussian coefficients with std-dev ``sigma``,
        centered as drawn: one polynomial, or a ``(rows, n)`` block."""
        size = self.n if rows is None else (rows, self.n)
        return np.rint(rng.normal(0.0, sigma, size=size)).astype(np.int64)

    def random_ternary(self, rng: np.random.Generator) -> "RingPoly":
        """Uniform ternary polynomial ({-1, 0, 1}) — the secret-key sampler."""
        return RingPoly(self, self.draw_ternary(rng) % self.q)

    def random_error(self, rng: np.random.Generator, sigma: float) -> "RingPoly":
        """Rounded-Gaussian error polynomial with std-dev ``sigma``."""
        return RingPoly(self, self.draw_error(rng, sigma) % self.q)

    # -- arithmetic helpers ---------------------------------------------

    def _mul_coeffs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.backend.mul(a, b)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingContext) and self.n == other.n and self.q == other.q
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q))

    def __repr__(self) -> str:
        return (
            f"RingContext(n={self.n}, q={self.q}, "
            f"backend={self.backend.name!r})"
        )


class RingPoly:
    """An element of ``R_q``.  Treat instances as immutable.

    ``_ntt`` holds the backend's cached transform-domain
    representations — limb transforms, FFT spectra — one per form the
    polynomial has entered a product in (set lazily by the vectorized
    backend); it is an implementation detail and is never serialized,
    compared or copied.
    """

    __slots__ = ("ring", "coeffs", "_ntt")

    def __init__(self, ring: RingContext, coeffs: np.ndarray):
        self.ring = ring
        self.coeffs = coeffs
        self._ntt = None

    # -- ring operations -------------------------------------------------

    def _check(self, other: "RingPoly") -> None:
        if self.ring != other.ring:
            raise ValueError("ring mismatch")

    def __add__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        return RingPoly(self.ring, (self.coeffs + other.coeffs) % self.ring.q)

    def __sub__(self, other: "RingPoly") -> "RingPoly":
        self._check(other)
        return RingPoly(self.ring, (self.coeffs - other.coeffs) % self.ring.q)

    def __neg__(self) -> "RingPoly":
        return RingPoly(self.ring, (-self.coeffs) % self.ring.q)

    def __mul__(self, other: "RingPoly | int") -> "RingPoly":
        if isinstance(other, (int, np.integer)):
            return self.scalar_mul(int(other))
        self._check(other)
        return RingPoly(self.ring, self.ring.backend.mul_poly(self, other))

    __rmul__ = __mul__

    def mul_by_small(self, small: "RingPoly") -> "RingPoly":
        """``self * small`` for a ``small`` with small centered
        coefficients (a ternary key): the same ring element as ``*``,
        computed as narrowly as the checked magnitude allows."""
        self._check(small)
        return RingPoly(
            self.ring, self.ring.backend.mul_by_small((self,), small)[0]
        )

    def scalar_mul(self, scalar: int) -> "RingPoly":
        return RingPoly(self.ring, self.ring.backend.scalar_mul(self.coeffs, scalar))

    def shift(self, degree: int) -> "RingPoly":
        """Multiply by ``X^degree`` (negacyclic rotation of coefficients)."""
        n = self.ring.n
        deg = degree % (2 * n)
        sign = 1
        if deg >= n:
            deg -= n
            sign = -1
        rolled = np.roll(self.coeffs, deg)
        if deg:
            rolled[:deg] = (-rolled[:deg]) % self.ring.q
        if sign == -1:
            rolled = (-rolled) % self.ring.q
        return RingPoly(self.ring, rolled)

    # -- representation changes -------------------------------------------

    def centered(self) -> np.ndarray:
        """Coefficients lifted to the centered interval (-q/2, q/2].

        int64 throughout — the 2**62 modulus cap keeps the lift exact.
        """
        return self.ring.backend.centered(self.coeffs)

    # -- misc --------------------------------------------------------------

    def copy(self) -> "RingPoly":
        return RingPoly(self.ring, self.coeffs.copy())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingPoly)
            and self.ring == other.ring
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:  # pragma: no cover - polys are not dict keys
        return hash((self.ring, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self.coeffs[:4])
        return f"RingPoly(n={self.ring.n}, q={self.ring.q}, coeffs=[{head}, ...])"


def row_dtype(q: int) -> np.dtype:
    """Narrowest unsigned type that holds ``[0, q)`` — the storage type
    of a cached query row."""
    for dtype in (np.uint16, np.uint32):
        if q - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.uint64)
