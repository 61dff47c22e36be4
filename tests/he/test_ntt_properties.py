"""Algebraic laws of the negacyclic NTT engine and the RNS basis.

Four families of properties, each across several ``(n, p)`` pairs:

* forward/inverse roundtrip (the transform is a bijection);
* the negacyclic wraparound sign: ``X^n = -1`` in ``Z_p[X]/(X^n+1)``;
* the convolution theorem: NTT pointwise products equal the exact
  schoolbook negacyclic convolution (and :meth:`RingContext._mul_coeffs`
  agrees for both native-NTT and CRT moduli);
* linearity of the forward transform.

Plus the RNS-specific laws: the limb basis product bound and the Garner
recombination against big-int CRT.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.he.backend import get_rns_basis
from repro.he.ntt import (
    NttPlan,
    _schoolbook_negacyclic,
    exact_negacyclic_convolution,
    get_plan,
)
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_prime
from tests.oracles import ARITHMETIC

#: (n, p) pairs with p an NTT-friendly prime for degree n.
PLAN_SHAPES = [
    (8, 257),
    (16, find_ntt_prime(20, 16)),
    (64, 12289),
    (256, find_ntt_prime(30, 256)),
]


def _rand(n: int, p: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, p, size=n, dtype=np.int64)


@pytest.mark.parametrize("n,p", PLAN_SHAPES)
class TestNttLaws:
    def test_forward_inverse_roundtrip(self, n, p):
        plan = get_plan(n, p)
        a = _rand(n, p, 11)
        assert np.array_equal(plan.inverse(plan.forward(a)), a)

    def test_inverse_forward_roundtrip(self, n, p):
        plan = get_plan(n, p)
        a = _rand(n, p, 12)
        assert np.array_equal(plan.forward(plan.inverse(a)), a)

    def test_forward_linearity(self, n, p):
        plan = get_plan(n, p)
        a, b = _rand(n, p, 13), _rand(n, p, 14)
        lhs = plan.forward((a + b) % p)
        rhs = (plan.forward(a) + plan.forward(b)) % p
        assert np.array_equal(lhs, rhs)
        for scalar in (2, p - 1):
            assert np.array_equal(
                plan.forward(a * scalar % p), plan.forward(a) * scalar % p
            )

    def test_convolution_theorem_vs_schoolbook(self, n, p):
        plan = get_plan(n, p)
        a, b = _rand(n, p, 15), _rand(n, p, 16)
        exact = _schoolbook_negacyclic(a.astype(object), b.astype(object))
        assert np.array_equal(plan.multiply(a, b), (exact % p).astype(np.int64))

    def test_negacyclic_wraparound_sign(self, n, p):
        """Multiplying by X rotates and negates the wrapped coefficient:
        the defining relation ``X^n = -1``."""
        plan = get_plan(n, p)
        a = _rand(n, p, 17)
        x = np.zeros(n, dtype=np.int64)
        x[1] = 1
        shifted = plan.multiply(a, x)
        expected = np.roll(a, 1)
        expected[0] = (-expected[0]) % p
        assert np.array_equal(shifted, expected)

    def test_x_to_the_n_is_minus_one(self, n, p):
        """(X^{n-1}) * X = X^n = -1 exactly."""
        plan = get_plan(n, p)
        top = np.zeros(n, dtype=np.int64)
        top[n - 1] = 1
        x = np.zeros(n, dtype=np.int64)
        x[1] = 1
        product = plan.multiply(top, x)
        minus_one = np.zeros(n, dtype=np.int64)
        minus_one[0] = p - 1
        assert np.array_equal(product, minus_one)

    def test_unfriendly_prime_rejected(self, n, p):
        with pytest.raises(ValueError, match="NTT-friendly"):
            NttPlan(n, 97 if (97 - 1) % (2 * n) else 11)


@pytest.mark.parametrize("q", [1 << 32, 12289, (1 << 62) - 57])
def test_ring_mul_matches_schoolbook(q):
    """`RingContext._mul_coeffs` equals the O(n^2) oracle for native-NTT,
    CRT, and RNS-limb moduli alike, on both backends."""
    n = 16
    rng = np.random.default_rng(21)
    a = rng.integers(0, q, size=n, dtype=np.int64)
    b = rng.integers(0, q, size=n, dtype=np.int64)
    exact = _schoolbook_negacyclic(a.astype(object), b.astype(object))
    expected = (exact % q).astype(np.int64)
    for backend in ("reference", "vectorized"):
        ring = ARITHMETIC[backend](RingContext(n, q))
        assert np.array_equal(ring._mul_coeffs(a, b), expected), backend


def test_exact_convolution_signed_inputs():
    n = 32
    rng = np.random.default_rng(22)
    a = rng.integers(-(1 << 31), 1 << 31, size=n, dtype=np.int64)
    b = rng.integers(-(1 << 31), 1 << 31, size=n, dtype=np.int64)
    exact = exact_negacyclic_convolution(a, b)
    expected = _schoolbook_negacyclic(a.astype(object), b.astype(object))
    assert np.array_equal(exact, expected)


class TestRnsBasis:
    def test_limb_product_exceeds_bound(self):
        for n, q in [(64, 1 << 32), (8, (1 << 62) - 57), (256, (1 << 48) + 1)]:
            basis = get_rns_basis(n, q)
            assert basis.modulus > 2 * n * (q // 2) ** 2
            assert len(set(basis.primes)) == len(basis.primes)

    def test_native_modulus_single_limb(self):
        basis = get_rns_basis(64, 12289)
        assert basis.native and basis.primes == (12289,)

    def test_combine_matches_bigint_crt(self):
        n, q = 16, (1 << 62) - 57
        basis = get_rns_basis(n, q)
        rng = np.random.default_rng(23)
        # Random centered integers below M/2 in magnitude.
        half = basis.modulus // 2
        values = [int(rng.integers(-(1 << 62), 1 << 62)) for _ in range(n)]
        assert all(abs(v) < half for v in values)
        residues = [
            np.array([v % p for v in values], dtype=np.int64)
            for p in basis.primes
        ]
        combined = basis.combine_mod_q(residues)
        expected = np.array([v % q for v in values], dtype=np.int64)
        assert np.array_equal(combined, expected)

    def test_multiply_centered_inputs(self):
        n, q = 8, (1 << 40) + 123
        basis = get_rns_basis(n, q)
        rng = np.random.default_rng(24)
        a = rng.integers(-(q // 2), q // 2 + 1, size=n, dtype=np.int64)
        b = rng.integers(-(q // 2), q // 2 + 1, size=n, dtype=np.int64)
        exact = _schoolbook_negacyclic(a.astype(object), b.astype(object))
        assert np.array_equal(
            basis.multiply(a, b), (exact % q).astype(np.int64)
        )
