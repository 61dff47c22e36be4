"""Ring (T)LWE over ``T_N[X]`` — the accumulator form used inside
bootstrapping.

A TLWE sample under key ``z = (z_1 .. z_k)`` (binary polynomials) is
``(a_1 .. a_k, b)`` with ``b = sum a_i z_i + mu + e`` where all entries
are torus polynomials.  Sample extraction turns coefficient 0 of a TLWE
phase into an ordinary LWE sample under the "extracted" key made of the
ring key's coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lwe import LweKey, LweSample
from .params import TORUS_MOD, TFHEParams
from .polymath import negacyclic_convolve_small, rotate_by_xai
from .torus import gaussian_torus, uniform_torus


@dataclass
class TLweKey:
    """Ring key: ``k`` binary polynomials of degree < N."""

    params: TFHEParams
    z: np.ndarray  # shape (k, N), entries in {0, 1}

    @staticmethod
    def generate(params: TFHEParams, rng: np.random.Generator) -> "TLweKey":
        z = rng.integers(0, 2, (params.tlwe_k, params.tlwe_n), dtype=np.int64)
        return TLweKey(params, z)

    def extracted_lwe_key(self) -> LweKey:
        """The LWE key matching :meth:`TLweSample.extract_lwe`.

        Extraction of coefficient 0 pairs ``a'_{p*N} = a_p[0]`` and
        ``a'_{p*N + i} = -a_p[N - i]`` with the *plain* key coefficients,
        which is equivalent to pairing plain ``a`` with the reversed and
        negacyclically-wrapped key; the standard convention keeps the
        key as the flat coefficient vector and folds the sign flips into
        the extracted mask, which is what we do.
        """
        flat = self.z.reshape(-1).copy()
        return LweKey(self.params, flat)


@dataclass
class TLweSample:
    """A TLWE ciphertext: ``k`` mask polynomials plus the body."""

    a: np.ndarray  # shape (k, N) torus polynomials
    b: np.ndarray  # shape (N,) torus polynomial

    def copy(self) -> "TLweSample":
        return TLweSample(self.a.copy(), self.b.copy())

    @property
    def k(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def __add__(self, other: "TLweSample") -> "TLweSample":
        return TLweSample(
            np.mod(self.a + other.a, TORUS_MOD),
            np.mod(self.b + other.b, TORUS_MOD),
        )

    def __sub__(self, other: "TLweSample") -> "TLweSample":
        return TLweSample(
            np.mod(self.a - other.a, TORUS_MOD),
            np.mod(self.b - other.b, TORUS_MOD),
        )

    def rotate(self, exponent: int) -> "TLweSample":
        """Multiply the whole sample by ``X**exponent`` (phase rotates
        with it, which is what blind rotation exploits)."""
        rotated_a = np.stack([rotate_by_xai(row, exponent) for row in self.a])
        return TLweSample(rotated_a, rotate_by_xai(self.b, exponent))

    @staticmethod
    def trivial(mu_poly: np.ndarray, params: TFHEParams) -> "TLweSample":
        """Noiseless sample with zero mask: phase = ``mu_poly``."""
        a = np.zeros((params.tlwe_k, params.tlwe_n), dtype=np.int64)
        return TLweSample(a, np.mod(np.asarray(mu_poly, dtype=np.int64), TORUS_MOD))

    def extract_lwe(self, index: int = 0) -> LweSample:
        """Extract coefficient ``index`` of the phase as an LWE sample
        under the extracted key (see :meth:`TLweKey.extracted_lwe_key`).
        """
        k, n = self.k, self.n
        mask = np.empty(k * n, dtype=np.int64)
        for p in range(k):
            row = self.a[p]
            # phase coeff `index` of a_p * z_p = sum_j a'_j z_p[j] with
            # a'_j = a_p[index - j] for j <= index, -a_p[N + index - j]
            # for j > index (negacyclic wrap).
            ext = np.empty(n, dtype=np.int64)
            ext[: index + 1] = row[index::-1]
            if index + 1 < n:
                ext[index + 1 :] = (-row[: index : -1]) % TORUS_MOD
            mask[p * n : (p + 1) * n] = ext
        return LweSample(mask, int(self.b[index]))


def tlwe_encrypt_zero(
    key: TLweKey, rng: np.random.Generator, alpha: float | None = None
) -> TLweSample:
    """A fresh encryption of the zero polynomial."""
    params = key.params
    if alpha is None:
        alpha = params.tlwe_alpha
    a = uniform_torus(rng, (params.tlwe_k, params.tlwe_n))
    body = gaussian_torus(rng, alpha, params.tlwe_n)
    for p in range(params.tlwe_k):
        body = (body + negacyclic_convolve_small(key.z[p], a[p])) % TORUS_MOD
    return TLweSample(a, body)


def tlwe_encrypt(
    mu_poly: np.ndarray,
    key: TLweKey,
    rng: np.random.Generator,
    alpha: float | None = None,
) -> TLweSample:
    """Encrypt a torus polynomial message."""
    sample = tlwe_encrypt_zero(key, rng, alpha)
    sample.b = (sample.b + np.asarray(mu_poly, dtype=np.int64)) % TORUS_MOD
    return sample
