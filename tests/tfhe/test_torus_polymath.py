"""Unit tests for Torus32 helpers and negacyclic polynomial math."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe.params import TORUS_MOD
from repro.tfhe.polymath import (
    gadget_decompose,
    negacyclic_convolve_small,
    rotate_by_xai,
)
from repro.tfhe.torus import (
    from_torus,
    gaussian_torus,
    mod_switch,
    to_torus,
    uniform_torus,
)
from tests.oracles import gadget_recompose, torus_distance


class TestTorus:
    def test_to_torus_eighth(self):
        assert to_torus(1, 8) == TORUS_MOD // 8

    def test_to_torus_negative_wraps(self):
        assert to_torus(-1, 8) == TORUS_MOD - TORUS_MOD // 8

    def test_to_torus_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            to_torus(1, 0)

    def test_from_torus_positive(self):
        assert from_torus(TORUS_MOD // 4) == pytest.approx(0.25)

    def test_from_torus_negative_representative(self):
        assert from_torus(TORUS_MOD - TORUS_MOD // 4) == pytest.approx(-0.25)

    def test_round_trip_eighths(self):
        for num in range(-3, 4):
            assert from_torus(to_torus(num, 8)) == pytest.approx(num / 8)

    def test_torus_distance_wraps(self):
        assert torus_distance(5, TORUS_MOD - 5) == 10

    def test_torus_distance_symmetric(self):
        assert torus_distance(100, 40) == torus_distance(40, 100)

    def test_gaussian_zero_alpha_is_zero(self):
        rng = np.random.default_rng(0)
        assert not gaussian_torus(rng, 0.0, 16).any()

    def test_gaussian_scale(self):
        rng = np.random.default_rng(0)
        samples = gaussian_torus(rng, 2.0 ** -10, 4096)
        reals = np.array([from_torus(int(s)) for s in samples])
        assert abs(reals.std() - 2.0 ** -10) / 2.0 ** -10 < 0.15

    def test_uniform_range(self):
        rng = np.random.default_rng(0)
        samples = uniform_torus(rng, 128)
        assert samples.min() >= 0 and samples.max() < TORUS_MOD

    def test_mod_switch_half_circle(self):
        assert mod_switch(TORUS_MOD // 2, 64) == 32

    def test_mod_switch_rounds_to_nearest(self):
        # A value just below a grid point rounds up to it.
        interval = TORUS_MOD // 64
        assert mod_switch(interval - 1, 64) == 1

    def test_mod_switch_wraps(self):
        assert mod_switch(TORUS_MOD - 1, 64) == 0


class TestRotate:
    def test_rotate_zero_is_identity(self):
        poly = np.arange(8, dtype=np.int64)
        assert np.array_equal(rotate_by_xai(poly, 0), poly)

    def test_rotate_by_one_shifts_and_negates_wraparound(self):
        poly = np.array([1, 2, 3, 4], dtype=np.int64)
        out = rotate_by_xai(poly, 1)
        assert out[0] == (-4) % TORUS_MOD
        assert list(out[1:]) == [1, 2, 3]

    def test_rotate_by_n_negates(self):
        poly = np.arange(1, 9, dtype=np.int64)
        out = rotate_by_xai(poly, 8)
        assert np.array_equal(out, (-poly) % TORUS_MOD)

    def test_rotate_by_2n_is_identity(self):
        poly = np.arange(8, dtype=np.int64)
        assert np.array_equal(rotate_by_xai(poly, 16), poly)

    def test_rotate_negative_exponent(self):
        poly = np.arange(8, dtype=np.int64)
        assert np.array_equal(rotate_by_xai(poly, -3), rotate_by_xai(poly, 13))

    @given(st.integers(min_value=-64, max_value=64), st.integers(min_value=-64, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_rotate_composes(self, a, b):
        rng = np.random.default_rng(7)
        poly = rng.integers(0, TORUS_MOD, 16, dtype=np.int64)
        once = rotate_by_xai(rotate_by_xai(poly, a), b)
        combined = rotate_by_xai(poly, a + b)
        assert np.array_equal(once, combined)


class TestConvolve:
    def test_multiply_by_one(self):
        rng = np.random.default_rng(0)
        torus = rng.integers(0, TORUS_MOD, 8, dtype=np.int64)
        one = np.zeros(8, dtype=np.int64)
        one[0] = 1
        assert np.array_equal(negacyclic_convolve_small(one, torus), torus)

    def test_multiply_by_x_matches_rotate(self):
        rng = np.random.default_rng(0)
        torus = rng.integers(0, TORUS_MOD, 8, dtype=np.int64)
        x = np.zeros(8, dtype=np.int64)
        x[1] = 1
        assert np.array_equal(
            negacyclic_convolve_small(x, torus), rotate_by_xai(torus, 1)
        )

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            negacyclic_convolve_small(np.zeros(4, dtype=np.int64), np.zeros(8, dtype=np.int64))

    def test_matches_schoolbook(self):
        rng = np.random.default_rng(3)
        n = 16
        small = rng.integers(-128, 128, n, dtype=np.int64)
        torus = rng.integers(0, TORUS_MOD, n, dtype=np.int64)
        expected = np.zeros(n, dtype=object)
        for i in range(n):
            for j in range(n):
                k = i + j
                sign = 1
                if k >= n:
                    k -= n
                    sign = -1
                expected[k] += sign * int(small[i]) * int(torus[j])
        expected = np.array([int(v) % TORUS_MOD for v in expected], dtype=np.int64)
        assert np.array_equal(negacyclic_convolve_small(small, torus), expected)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_scalar_distributes(self, c):
        rng = np.random.default_rng(11)
        n = 8
        small = rng.integers(-100, 100, n, dtype=np.int64)
        torus = np.zeros(n, dtype=np.int64)
        torus[0] = c
        out = negacyclic_convolve_small(small, torus)
        expected = np.mod(small * c, TORUS_MOD)
        assert np.array_equal(out, expected)


class TestGadget:
    def test_digit_range(self):
        rng = np.random.default_rng(2)
        poly = rng.integers(0, TORUS_MOD, 32, dtype=np.int64)
        for digit in gadget_decompose(poly, bg_bit=8, levels=2):
            assert digit.min() >= -128 and digit.max() < 128

    def test_recompose_error_bound(self):
        rng = np.random.default_rng(2)
        poly = rng.integers(0, TORUS_MOD, 64, dtype=np.int64)
        bg_bit, levels = 8, 2
        approx = gadget_recompose(gadget_decompose(poly, bg_bit, levels), bg_bit)
        max_err = 1 << (32 - levels * bg_bit)
        for orig, rec in zip(poly, approx):
            assert torus_distance(int(orig), int(rec)) <= max_err

    def test_exact_when_levels_cover_torus(self):
        rng = np.random.default_rng(5)
        poly = rng.integers(0, TORUS_MOD, 16, dtype=np.int64)
        approx = gadget_recompose(gadget_decompose(poly, 8, 4), 8)
        assert np.array_equal(approx, poly)

    @given(st.integers(min_value=1, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_levels_monotone_precision(self, levels):
        rng = np.random.default_rng(9)
        poly = rng.integers(0, TORUS_MOD, 8, dtype=np.int64)
        approx = gadget_recompose(gadget_decompose(poly, 8, levels), 8)
        bound = 1 << (32 - levels * 8)
        for orig, rec in zip(poly, approx):
            assert torus_distance(int(orig), int(rec)) <= bound
