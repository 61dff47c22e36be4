"""Property-based parity of the polynomial ring with its oracle.

The vectorized RNS/NTT backend — the one arithmetic ``src/`` has — must
be *bit-for-bit* equal to the reference big-int backend
(``tests/oracles.py``) on every ring operation, for every supported
modulus shape: tiny moduli, the paper's power-of-two ``q = 2**32``,
native NTT primes, odd composite moduli, and moduli near the 2**62
support cap where the RNS limb count is largest (5 limbs) and the
int64-safe scalar kernels are exercised hardest.

Deterministic seeds + a hypothesis layer: the parametrized grid pins the
regimes we know are structurally different; hypothesis explores the gaps.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ClientConfig
from repro.he import BFVContext, BFVParams, KeyGenerator, generate_keys
from repro.he.backend import VectorizedBackend, get_rns_basis, mulmod_scalar
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_prime
from tests.oracles import ReferenceBackend, lift_mod, reference_arithmetic

# Moduli chosen to hit every backend regime:
#   2                — minimal ring, single limb
#   97               — small prime, but NOT NTT-friendly for these n
#   12289            — native NTT prime (single native limb, no Garner)
#   2**32            — the paper's modulus (3 limbs, direct fold)
#   2**40 + 123      — odd composite above the direct-fold threshold
#   2**62 - 57       — near the support cap: 5 limbs, ladder/float kernels
MODULI = [
    2,
    97,
    12289,
    1 << 32,
    (1 << 40) + 123,
    (1 << 62) - 57,
]
DEGREES = [8, 64]


def _rings(n: int, q: int) -> tuple[RingContext, RingContext]:
    return reference_arithmetic(RingContext(n, q)), RingContext(n, q)


def _random_pair(ref, vec, rng):
    coeffs = rng.integers(0, ref.q, size=ref.n, dtype=np.int64)
    return ref.make(coeffs), vec.make(coeffs)


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestBackendParity:
    def test_mul(self, n, q, seed):
        ref, vec = _rings(n, q)
        rng = np.random.default_rng(seed)
        ra, va = _random_pair(ref, vec, rng)
        rb, vb = _random_pair(ref, vec, rng)
        expected = (ra * rb).coeffs
        got = (va * vb).coeffs
        assert got.dtype == np.int64
        assert np.array_equal(expected, got)
        # Second product hits the cached NTT transforms; it must be
        # identical to the uncached one.
        assert np.array_equal(expected, (va * vb).coeffs)

    def test_add_sub_neg(self, n, q, seed):
        ref, vec = _rings(n, q)
        rng = np.random.default_rng(seed)
        ra, va = _random_pair(ref, vec, rng)
        rb, vb = _random_pair(ref, vec, rng)
        assert np.array_equal((ra + rb).coeffs, (va + vb).coeffs)
        assert np.array_equal((ra - rb).coeffs, (va - vb).coeffs)
        assert np.array_equal((-ra).coeffs, (-va).coeffs)

    def test_scalar_mul(self, n, q, seed):
        ref, vec = _rings(n, q)
        rng = np.random.default_rng(seed)
        ra, va = _random_pair(ref, vec, rng)
        for scalar in (0, 1, q - 1, int(rng.integers(0, q)), q + 7, -3):
            assert np.array_equal(
                ra.scalar_mul(scalar).coeffs, va.scalar_mul(scalar).coeffs
            ), f"scalar={scalar}"

    def test_shift(self, n, q, seed):
        ref, vec = _rings(n, q)
        rng = np.random.default_rng(seed)
        ra, va = _random_pair(ref, vec, rng)
        for degree in (0, 1, n - 1, n, 2 * n - 1, -1, 3 * n + 2):
            assert np.array_equal(
                ra.shift(degree).coeffs, va.shift(degree).coeffs
            ), f"degree={degree}"

    def test_centered_and_lift(self, n, q, seed):
        ref, vec = _rings(n, q)
        rng = np.random.default_rng(seed)
        ra, va = _random_pair(ref, vec, rng)
        assert np.array_equal(ra.centered(), va.centered())
        for m in (2, 17, 1 << 16):
            assert np.array_equal(lift_mod(ra, m), lift_mod(va, m))

    def test_make_object_dtype(self, n, q, seed):
        ref, vec = _rings(n, q)
        rng = np.random.default_rng(seed)
        big = [(int(x) << 70) + int(y) for x, y in zip(
            rng.integers(0, 1 << 30, size=n), rng.integers(0, 1 << 30, size=n)
        )]
        obj = np.array(big, dtype=object)
        rp, vp = ref.make(obj), vec.make(obj)
        assert rp.coeffs.dtype == np.int64
        assert np.array_equal(rp.coeffs, vp.coeffs)
        assert np.array_equal(rp.coeffs, np.array([b % q for b in big]))


#: Rings large enough to take the four-step (BLAS matmul) transform, plus
#: the regimes at its boundary: a native prime in [2**30, 2**31) must
#: route to the stacked butterflies (the float64 exactness bound needs
#: limbs < 2**30), while a sub-2**30 native prime rides the four-step.
LARGE_RING_CASES = [
    (4096, 1 << 32),  # paper modulus: 3-limb four-step
    (256, (1 << 62) - 57),  # 5-limb four-step near the support cap
    (4096, find_ntt_prime(31, 8192)),  # native >= 2**30: stacked
    (4096, find_ntt_prime(29, 8192)),  # native < 2**30: four-step
]


@pytest.mark.parametrize("n,q", LARGE_RING_CASES)
def test_large_ring_parity(n, q):
    ref, vec = _rings(n, q)
    rng = np.random.default_rng(9)
    # Top-biased operands maximize the transform partial sums — the
    # adversarial input for the float64 matmul exactness bound.
    coeffs_a = q - 1 - rng.integers(0, 1 << 16, size=n, dtype=np.int64)
    coeffs_b = q - 1 - rng.integers(0, 1 << 16, size=n, dtype=np.int64)
    ra, rb = ref.make(coeffs_a), ref.make(coeffs_b)
    va, vb = vec.make(coeffs_a), vec.make(coeffs_b)
    expected = (ra * rb).coeffs
    assert np.array_equal(expected, (va * vb).coeffs)
    assert np.array_equal(expected, (va * vb).coeffs)  # cached transforms
    rc = rng.integers(0, q, size=n, dtype=np.int64)
    ru, vu = ref.make(rc), vec.make(rc)
    assert np.array_equal((ra * ru).coeffs, (va * vu).coeffs)


class TestMulmodScalarKernel:
    """The int64-safe modular kernel under each of its three regimes."""

    @pytest.mark.parametrize(
        "q", [(1 << 32), (1 << 49) + 9, (1 << 62) - 57]
    )
    def test_matches_bigint(self, q):
        rng = np.random.default_rng(5)
        vec = rng.integers(0, q, size=257, dtype=np.int64)
        for scalar in (0, 1, 2, q - 1, q // 3, int(rng.integers(0, q))):
            got = mulmod_scalar(vec, scalar, q)
            expected = np.array(
                [int(v) * scalar % q for v in vec], dtype=np.int64
            )
            assert np.array_equal(got, expected), f"q={q} scalar={scalar}"

    def test_small_vector_values_hint(self):
        q = (1 << 62) - 57
        rng = np.random.default_rng(6)
        vec = rng.integers(0, 1 << 30, size=64, dtype=np.int64)
        scalar = q - 12345
        got = mulmod_scalar(vec, scalar, q, vec_bits=30)
        expected = np.array([int(v) * scalar % q for v in vec], dtype=np.int64)
        assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.sampled_from([8, 16, 32]),
    q=st.one_of(
        st.integers(2, 1 << 20),
        st.integers((1 << 31) - 64, (1 << 31) + 64),
        st.integers((1 << 62) - 4096, (1 << 62) - 1),
    ),
)
def test_backend_parity_fuzz(seed, n, q):
    """Hypothesis sweep: random moduli (including just around the int64
    safety boundaries) with random operands; mul/scalar_mul must agree bit-for-bit."""
    ref, vec = _rings(n, q)
    rng = np.random.default_rng(seed)
    ra, va = _random_pair(ref, vec, rng)
    rb, vb = _random_pair(ref, vec, rng)
    assert np.array_equal((ra * rb).coeffs, (va * vb).coeffs)
    scalar = int(rng.integers(0, q))
    assert np.array_equal(ra.scalar_mul(scalar).coeffs, va.scalar_mul(scalar).coeffs)


class TestBackendSelection:
    def test_default_is_vectorized(self, monkeypatch):
        """One arithmetic, whatever the environment says."""
        monkeypatch.setenv("REPRO_POLY_BACKEND", "reference")
        params = BFVParams.test_small(16)
        ctx = BFVContext(params)
        for ring in (
            RingContext(16, 1 << 32),
            ctx.ring,
            ctx.plain_ring,
            KeyGenerator(params).ring,
        ):
            assert type(ring.backend) is VectorizedBackend

    def test_explicit_instance(self):
        """The oracle's ring is an equal ring that really multiplies on
        the reference backend: its polynomials mix with the default
        ring's, and its products leave no transform behind."""
        ref, vec = _rings(16, 257)
        assert type(ref.backend) is ReferenceBackend
        assert (ref.backend.n, ref.backend.q) == (16, 257)
        assert ref == vec and ref.backend is not vec.backend
        rng = np.random.default_rng(1)
        ra, va = _random_pair(ref, vec, rng)
        rb, vb = _random_pair(ref, vec, rng)
        want = ra * rb
        assert ra._ntt is None and rb._ntt is None  # ran on the oracle
        assert va * vb == want and va._ntt is not None
        assert ra * vb == va * rb == want  # the left operand's ring runs

    def test_unknown_name_rejected(self):
        """No constructor takes a backend, by any name or instance."""
        params = BFVParams.test_small(16)
        for build in (
            lambda **kw: RingContext(16, 257, **kw),
            lambda **kw: BFVContext(params, **kw),
            lambda **kw: KeyGenerator(params, **kw),
            lambda **kw: generate_keys(params, 1, **kw),
        ):
            for backend in ("simd", "reference", VectorizedBackend(16, 257)):
                with pytest.raises(TypeError, match="backend"):
                    build(backend=backend)
        with pytest.raises(TypeError, match="poly_backend"):
            ClientConfig(params, poly_backend="reference")


class TestNttCaching:
    def test_cache_populated_and_reused(self):
        ring = RingContext(64, 1 << 32)
        rng = np.random.default_rng(3)
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        assert a._ntt is None
        first = a * b
        assert a._ntt is not None and b._ntt is not None
        cached = a._ntt
        second = a * b
        assert a._ntt is cached  # reused, not recomputed
        assert first == second

    def test_cache_shared_across_equal_rings(self):
        # Bases are lru-cached per (n, q), so a poly transformed in one
        # context reuses its cache in another equal context.
        r1 = RingContext(64, 1 << 32)
        r2 = RingContext(64, 1 << 32)
        assert get_rns_basis(64, 1 << 32) is get_rns_basis(64, 1 << 32)
        rng = np.random.default_rng(4)
        a = r1.random_uniform(rng)
        b = r1.random_uniform(rng)
        _ = a * b
        cached = a._ntt
        _ = r2.backend.mul_poly(a, b)
        assert a._ntt is cached

    def test_copy_does_not_share_cache(self):
        ring = RingContext(64, 1 << 32)
        rng = np.random.default_rng(5)
        a = ring.random_uniform(rng)
        b = ring.random_uniform(rng)
        _ = a * b
        assert a.copy()._ntt is None
