"""The small-operand product — a negacyclic convolution through one
exact float64 FFT, the mod-``q`` operand split into pieces sized from
the checked magnitude of the small one — against
:func:`repro.he.ntt.exact_negacyclic_convolution` reduced mod ``q``.
Every comparison is ``==`` on int64 coefficient vectors; the operands
are the worst cases of the a-priori error bound, not typical draws."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import BFVParams
from repro.he.arena import mul_rows_by_poly
from repro.he.ntt import exact_negacyclic_convolution
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_prime
from tests.oracles import count_transforms, paper_secure_params

RINGS = {
    "paper": lambda: (BFVParams.paper().n, BFVParams.paper().q),
    "paper_secure": lambda: (paper_secure_params().n, paper_secure_params().q),
    "odd_q": lambda: (256, (1 << 40) - 87),
    "native_prime": lambda: (64, find_ntt_prime(30, 64)),
    "n64": lambda: (64, 1 << 32),
    "q62": lambda: (64, (1 << 62) - 57),
}


def _exact(a, b, q):
    return (exact_negacyclic_convolution(a, b) % q).astype(np.int64)


def _worst_operands(n, q, magnitude):
    """(mod-q operand, centered small operand) pairs that line every
    term of one coefficient up in one direction, and the extremes of
    the piece values: all ``q - 1`` (every piece all ones), all
    ``q // 2``, alternating."""
    ones = np.ones(n, dtype=np.int64)
    signs = np.where(np.arange(n) % 2 == 0, 1, -1)
    # coefficient n - 1 of a * b sums a_i b_(n-1-i), all with sign +:
    # a constant operand times a constant one maximises it; coefficient
    # 0 sums a_0 b_0 - sum a_i b_(n-i): a step pattern maximises that
    step = np.where(np.arange(n) == 0, 1, -1)
    rng = np.random.default_rng(n + magnitude)
    for value in (q - 1, q // 2, q // 2 + 1):
        big = np.full(n, value, dtype=np.int64)
        for pattern in (ones, -ones, signs, step):
            yield big, magnitude * pattern
    yield np.where(signs > 0, q - 1, 0), magnitude * signs
    yield rng.integers(0, q, size=n, dtype=np.int64), rng.integers(
        -magnitude, magnitude + 1, size=n, dtype=np.int64
    )


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("magnitude", [1, 2, 100, 1000])
def test_small_product_equals_the_exact_convolution_on_worst_cases(name, magnitude):
    n, q = RINGS[name]()
    ring = RingContext(n, q)
    assert ring.backend.fft.plan(magnitude) is not None
    for big, small in _worst_operands(n, q, magnitude):
        want = _exact(big, small, q)
        with count_transforms() as calls:
            got = ring.make(big).mul_by_small(ring.make(small))
        assert {call[0] for call in calls} == {"SmallProductFft"}
        assert got.coeffs.dtype == np.int64 and np.array_equal(got.coeffs, want)
        rows = mul_rows_by_poly(ring, np.stack([big, big[::-1]]), ring.make(small))
        assert np.array_equal(rows[0], want)
        assert np.array_equal(rows[1], _exact(big[::-1], small, q))


@pytest.mark.parametrize("name", ["paper", "paper_secure", "odd_q"])
def test_one_past_the_piece_limit_takes_the_general_product(name):
    """The largest magnitude that still gets 8-bit pieces multiplies by
    FFT at the very edge of its budget; one more and the operand is not
    small — the RNS product, same value."""
    n, q = RINGS[name]()
    ring = RingContext(n, q)
    fft = ring.backend.fft
    last = min(fft.limit >> 8, q // 2)
    big = np.full(n, q - 1, dtype=np.int64)
    for magnitude, small_path in ((last, True), (last + 1, False)):
        if magnitude > q // 2:
            continue
        assert (fft.plan(magnitude) is not None) == small_path
        small = np.full(n, magnitude, dtype=np.int64)
        with count_transforms() as calls:
            got = ring.make(big).mul_by_small(ring.make(small))
        assert ({call[0] for call in calls} == {"SmallProductFft"}) == small_path
        assert np.array_equal(got.coeffs, _exact(big, small, q))


@settings(max_examples=40, deadline=None)
@given(
    log_n=st.integers(1, 8),
    q=st.one_of(
        st.sampled_from([1 << 32, 1 << 61, 12289, (1 << 40) - 87, (1 << 62) - 57, 2, 3]),
        st.integers(2, (1 << 62) - 1),
    ),
    magnitude=st.sampled_from([1, 3, 20, 1000, 1 << 18]),
    seed=st.integers(0, 2**31),
)
def test_small_product_property(log_n, q, magnitude, seed):
    n = 1 << log_n
    ring = RingContext(n, q)
    rng = np.random.default_rng(seed)
    big = rng.integers(0, q, size=n, dtype=np.int64)
    magnitude = min(magnitude, q // 2)
    small = rng.integers(-magnitude, magnitude + 1, size=n, dtype=np.int64)
    got = ring.backend.mul_by_small((ring.make(big),), ring.make(small))[0]
    assert np.array_equal(got, _exact(big, small % q, q))
    rows = mul_rows_by_poly(ring, big[None], ring.make(small))
    assert np.array_equal(rows[0], got)


def test_join_rejoins_without_wrapping_near_the_modulus_cap():
    """Signed piece products at their largest, rejoined at moduli where
    a plain shift-and-add would pass ``2**63``."""
    for q in ((1 << 62) - 57, 1 << 61, paper_secure_params().q):
        n = 64
        fft = RingContext(n, q).backend.fft
        bits, pieces = fft.plan(1)
        top = n << bits  # the largest |coefficient| of one piece product
        for sign in (1, -1):
            parts = np.full((pieces, n), sign * top, dtype=np.int64)
            want = sum(sign * top * (1 << (k * bits)) for k in range(pieces)) % q
            assert fft.join(parts, bits).tolist() == [want] * n
