"""Unit tests for the polynomial ring."""

import numpy as np
import pytest

from repro.he.backend import _is_native_ntt_modulus
from repro.he.poly import RingContext, RingPoly
from repro.he.primes import find_ntt_prime
from tests.oracles import ARITHMETIC, lift_mod


@pytest.fixture(scope="module")
def ring():
    return RingContext(16, 1 << 32)  # exact-convolution path


@pytest.fixture(scope="module")
def ntt_ring():
    n = 16
    return RingContext(n, find_ntt_prime(25, n))  # NTT fast path


class TestRingContext:
    def test_power_of_two_modulus_skips_ntt(self, ring):
        assert not _is_native_ntt_modulus(ring.n, ring.q)

    def test_ntt_prime_uses_ntt(self, ntt_ring):
        assert _is_native_ntt_modulus(ntt_ring.n, ntt_ring.q)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            RingContext(12, 97)

    def test_rejects_huge_modulus(self):
        with pytest.raises(ValueError):
            RingContext(16, 1 << 63)

    def test_make_validates_shape(self, ring):
        with pytest.raises(ValueError):
            ring.make(np.zeros(8))

    def test_make_reduces_mod_q(self, ring):
        p = ring.make(np.full(16, ring.q + 5))
        assert all(int(c) == 5 for c in p.coeffs)

    def test_equality_and_hash(self):
        a = RingContext(16, 97)
        b = RingContext(16, 97)
        assert a == b and hash(a) == hash(b)
        assert a != RingContext(32, 97)

    def test_constant_and_monomial(self, ring):
        c = ring.constant(7)
        assert int(c.coeffs[0]) == 7 and not c.coeffs[1:].any()
        m = ring.monomial(3, 2)
        assert int(m.coeffs[3]) == 2

    def test_monomial_wraps_with_sign(self, ring):
        m = ring.monomial(ring.n, 1)  # x^n = -1
        assert int(m.coeffs[0]) == ring.q - 1

    def test_random_ternary_range(self, ring):
        rng = np.random.default_rng(0)
        p = ring.random_ternary(rng)
        centered = p.centered()
        assert all(int(c) in (-1, 0, 1) for c in centered)

    def test_random_error_magnitude(self, ring):
        rng = np.random.default_rng(0)
        p = ring.random_error(rng, 3.2)
        assert np.abs(p.centered()).max() < 30  # ~9 sigma


class TestRingPolyArithmetic:
    def test_add_sub_roundtrip(self, ring):
        rng = np.random.default_rng(1)
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        assert (a + b) - b == a

    def test_add_commutative(self, ring):
        rng = np.random.default_rng(2)
        a, b = ring.random_uniform(rng), ring.random_uniform(rng)
        assert a + b == b + a

    def test_neg(self, ring):
        rng = np.random.default_rng(3)
        a = ring.random_uniform(rng)
        assert not (a + (-a)).coeffs.any()

    def test_ring_mismatch_raises(self, ring, ntt_ring):
        with pytest.raises(ValueError):
            ring.zero() + ntt_ring.zero()

    def test_mul_identity(self, ring):
        rng = np.random.default_rng(4)
        a = ring.random_uniform(rng)
        assert a * ring.constant(1) == a

    def test_mul_matches_on_both_paths(self, ring, ntt_ring):
        # same operands multiplied in both rings, compared mod min modulus
        rng = np.random.default_rng(5)
        small = min(ring.q, ntt_ring.q)
        # support only in the lower half so no negacyclic wrap occurs and
        # the exact product coefficients stay small and non-negative
        a_co = np.zeros(ring.n, dtype=np.int64)
        b_co = np.zeros(ring.n, dtype=np.int64)
        a_co[: ring.n // 2] = rng.integers(0, 100, ring.n // 2)
        b_co[: ring.n // 2] = rng.integers(0, 100, ring.n // 2)
        r1 = (ring.make(a_co) * ring.make(b_co)).coeffs % small
        r2 = (ntt_ring.make(a_co) * ntt_ring.make(b_co)).coeffs % small
        assert np.array_equal(r1, r2)

    def test_scalar_mul_small(self, ring):
        a = ring.make(np.arange(16))
        assert np.array_equal(a.scalar_mul(3).coeffs, (np.arange(16) * 3) % ring.q)

    def test_scalar_mul_large_scalar(self, ring):
        # scalar large enough to overflow int64 products
        a = ring.make(np.full(16, ring.q - 1))
        big = ring.q - 1
        result = a.scalar_mul(big)
        expected = (ring.q - 1) * (ring.q - 1) % ring.q
        assert all(int(c) == expected for c in result.coeffs)

    def test_mul_by_int_dispatch(self, ring):
        a = ring.make(np.arange(16))
        assert a * 3 == a.scalar_mul(3)
        assert 3 * a == a.scalar_mul(3)


class TestShiftAndAutomorphism:
    def test_shift_zero(self, ring):
        rng = np.random.default_rng(6)
        a = ring.random_uniform(rng)
        assert a.shift(0) == a

    def test_shift_matches_monomial_multiply(self, ring):
        rng = np.random.default_rng(7)
        a = ring.random_uniform(rng)
        for k in (1, 5, ring.n - 1, ring.n, 2 * ring.n - 1):
            assert a.shift(k) == a * ring.monomial(k), f"shift {k}"

    def test_shift_full_cycle(self, ring):
        rng = np.random.default_rng(8)
        a = ring.random_uniform(rng)
        assert a.shift(2 * ring.n) == a
        assert a.shift(ring.n) == -a


class TestRepresentation:
    def test_centered_range(self, ring):
        rng = np.random.default_rng(12)
        a = ring.random_uniform(rng)
        half = ring.q // 2
        assert all(-half <= int(c) <= half for c in a.centered())

    def test_centered_roundtrip(self, ring):
        rng = np.random.default_rng(13)
        a = ring.random_uniform(rng)
        assert ring.make(a.centered()) == a

    def test_lift_mod(self, ring):
        a = ring.make([1, ring.q - 1] + [0] * 14)  # 1 and -1
        lifted = lift_mod(a, 7)
        assert lifted[0] == 1 and lifted[1] == 6  # -1 mod 7

    def test_copy_is_independent(self, ring):
        a = ring.make(np.arange(16))
        b = a.copy()
        b.coeffs[0] = 99
        assert int(a.coeffs[0]) == 0


class TestWideModulusVectorization:
    """Pin the exact semantics of scalar_mul / make above the int64-safe
    product threshold (q > 2**32): both the reference object-dtype path
    and the vectorized int64 kernels must equal plain Python-int math."""

    WIDE_Q = (1 << 40) + 123

    @pytest.fixture(scope="class", params=["reference", "vectorized"])
    def wide_ring(self, request):
        return ARITHMETIC[request.param](RingContext(16, self.WIDE_Q))

    def test_scalar_mul_wide_scalar(self, wide_ring):
        q = wide_ring.q
        values = [q - 1, q // 2, 1, 0, 123456789] + list(range(11))
        poly = wide_ring.make(values)
        scalar = q - 7  # 41-bit scalar x 41-bit coefficients: > 2**63
        got = poly.scalar_mul(scalar)
        expected = [v % q * scalar % q for v in values]
        assert got.coeffs.dtype == np.int64
        assert [int(c) for c in got.coeffs] == expected

    def test_scalar_mul_small_scalar_stays_direct(self, wide_ring):
        poly = wide_ring.make(list(range(16)))
        got = poly.scalar_mul(3)
        assert [int(c) for c in got.coeffs] == [3 * v for v in range(16)]

    def test_make_object_input(self, wide_ring):
        q = wide_ring.q
        big = [(1 << 90) + i for i in range(16)]
        poly = wide_ring.make(np.array(big, dtype=object))
        assert poly.coeffs.dtype == np.int64
        assert [int(c) for c in poly.coeffs] == [b % q for b in big]

    def test_make_negative_input(self, wide_ring):
        poly = wide_ring.make([-1] * 16)
        assert all(int(c) == wide_ring.q - 1 for c in poly.coeffs)

    def test_centered_is_int64_and_exact(self, wide_ring):
        q = wide_ring.q
        poly = wide_ring.make([0, 1, q - 1, q // 2, q // 2 + 1] + [0] * 11)
        centered = poly.centered()
        assert centered.dtype == np.int64
        assert int(centered[2]) == -1
        assert int(centered[3]) == q // 2  # boundary stays positive
        assert int(centered[4]) == q // 2 + 1 - q
