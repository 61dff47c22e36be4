"""Tests for the BFV noise-analysis module: the bounds must bound the
measured noise, and the budgets must match the paper's depth story."""

import numpy as np
import pytest

from repro.he.bfv import BFVContext
from repro.he.keys import generate_keys
from repro.he.noise import NoiseBounds, NoiseBudgetEstimator, NoiseTracker
from repro.he.params import BFVParams


@pytest.fixture(scope="module")
def setup():
    params = BFVParams.test_small(64)
    ctx = BFVContext(params, seed=17)
    sk, pk, rlk = generate_keys(params, seed=17, relin=True)
    return params, ctx, sk, pk, rlk


class TestBounds:
    def test_fresh_bound_holds(self, setup):
        params, ctx, sk, pk, _ = setup
        bounds = NoiseBounds(params)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pt = ctx.plaintext(rng.integers(0, params.t, params.n))
            ct = ctx.encrypt(pt, pk)
            assert ctx.noise_residual(ct, sk) <= bounds.fresh

    def test_addition_bound_holds(self, setup):
        params, ctx, sk, pk, _ = setup
        bounds = NoiseBounds(params)
        rng = np.random.default_rng(1)
        acc = ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, params.n)), pk)
        for count in range(1, 20):
            fresh = ctx.encrypt(
                ctx.plaintext(rng.integers(0, params.t, params.n)), pk
            )
            acc = ctx.add(acc, fresh)
            assert ctx.noise_residual(acc, sk) <= bounds.after_adds(count)

    def test_mult_bound_holds(self):
        params = BFVParams.arithmetic_baseline(n=64)
        ctx = BFVContext(params, seed=3)
        sk, pk, rlk = generate_keys(params, seed=3, relin=True)
        bounds = NoiseBounds(params)
        rng = np.random.default_rng(3)
        a = ctx.encrypt(ctx.plaintext(rng.integers(0, 4, params.n)), pk)
        b = ctx.encrypt(ctx.plaintext(rng.integers(0, 4, params.n)), pk)
        na = ctx.noise_residual(a, sk)
        nb = ctx.noise_residual(b, sk)
        product = ctx.multiply(a, b, rlk)
        # Relinearization adds key-switch noise not in the textbook
        # tensor bound; allow a 4x envelope.
        assert ctx.noise_residual(product, sk) <= 4 * bounds.after_mult(
            max(na, 1), max(nb, 1)
        ) + 1e6

    def test_failure_threshold_is_half_delta(self, setup):
        params = setup[0]
        assert NoiseBounds(params).failure_threshold == params.delta / 2


class TestBudgets:
    def test_adds_vastly_cheaper_than_mults(self):
        """Key Takeaway 1, quantified: one Hom-Mult costs the budget of
        thousands of Hom-Adds."""
        est = NoiseBudgetEstimator(BFVParams.paper())
        assert est.addition_cost_of_one_mult() > 1000

    def test_paper_params_support_many_additions(self):
        est = NoiseBudgetEstimator(BFVParams.paper())
        assert est.max_sequential_additions() > 20

    def test_paper_params_support_no_mult(self):
        """The paper's presentation set (q = 2**32, t = 2**16) has no
        multiplication budget at all — consistent with CIPHERMATCH
        using Hom-Add only."""
        est = NoiseBudgetEstimator(BFVParams.paper())
        assert est.max_multiplication_depth() == 0

    def test_arithmetic_baseline_supports_depth_one(self):
        """Yasuda-style parameters must afford the HD circuit's depth-1
        multiplication."""
        est = NoiseBudgetEstimator(BFVParams.arithmetic_baseline())
        assert est.max_multiplication_depth() >= 1

    def test_budget_bits_positive(self):
        est = NoiseBudgetEstimator(BFVParams.paper())
        assert est.fresh_budget_bits() > 0

    def test_additions_budget_matches_measurement(self):
        """Actually run more additions than half the estimated budget
        and verify decryption stays correct."""
        params = BFVParams.test_small(64)
        ctx = BFVContext(params, seed=9)
        sk, pk, _ = generate_keys(params, seed=9)
        est = NoiseBudgetEstimator(params)
        runs = min(est.max_sequential_additions() // 2, 50)
        rng = np.random.default_rng(5)
        values = rng.integers(0, 4, (runs + 1, params.n))
        acc = ctx.encrypt(ctx.plaintext(values[0]), pk)
        for i in range(1, runs + 1):
            acc = ctx.add(acc, ctx.encrypt(ctx.plaintext(values[i]), pk))
        decrypted = ctx.decrypt(acc, sk).poly.coeffs
        assert np.array_equal(decrypted, values.sum(axis=0) % params.t)


class TestTracker:
    def test_tracks_history(self, setup):
        params, ctx, sk, pk, rlk = setup
        tracker = NoiseTracker(ctx, sk)
        rng = np.random.default_rng(2)
        a = ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, params.n)), pk)
        b = ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, params.n)), pk)
        tracker.add(a, b)
        assert len(tracker.history) == 1
        assert tracker.history[0][0] == "add"
        assert tracker.healthy()

    def test_peak_monotone(self, setup):
        params, ctx, sk, pk, _ = setup
        tracker = NoiseTracker(ctx, sk)
        rng = np.random.default_rng(4)
        acc = ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, params.n)), pk)
        peaks = []
        for _ in range(5):
            acc = tracker.add(
                acc, ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, params.n)), pk)
            )
            peaks.append(tracker.peak)
        assert peaks == sorted(peaks)

    def test_summary_renders(self, setup):
        params, ctx, sk, pk, _ = setup
        tracker = NoiseTracker(ctx, sk)
        rng = np.random.default_rng(6)
        a = ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, params.n)), pk)
        tracker.add(a, a)
        assert "add" in tracker.summary()
        assert "budget" in tracker.summary()
