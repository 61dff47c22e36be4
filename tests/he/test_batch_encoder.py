"""Tests for the SIMD slot (batching) encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he.batch_encoder import BatchEncoder
from repro.he.bfv import BFVContext
from repro.he.keys import generate_keys
from repro.he.params import BFVParams


def batching_params(n: int = 128, q_bits: int = 120) -> BFVParams:
    """A batching-friendly set: ``t = 257`` splits fully for any
    ``n <= 128`` (``2n`` divides 256); ``q`` is sized by the caller for
    the circuit depth at hand."""
    if n > 128:
        raise ValueError("t = 257 batches only up to n = 128")
    return BFVParams(n=n, q=1 << q_bits, t=257, name=f"batch-n{n}")


@pytest.fixture(scope="module")
def params():
    return batching_params(n=64, q_bits=60)


@pytest.fixture(scope="module")
def encoder(params):
    return BatchEncoder(params)


@pytest.fixture(scope="module")
def ctx(params):
    return BFVContext(params, seed=0)


@pytest.fixture(scope="module")
def keys(params):
    return generate_keys(params, seed=0, relin=True)


class TestConstruction:
    def test_rejects_composite_t(self):
        with pytest.raises(ValueError):
            BatchEncoder(BFVParams(n=64, q=1 << 40, t=256))

    def test_rejects_non_splitting_prime(self):
        # 17 - 1 = 16 is not divisible by 2n = 128.
        with pytest.raises(ValueError):
            BatchEncoder(BFVParams(n=64, q=1 << 40, t=17))

    def test_preset_bounds(self):
        with pytest.raises(ValueError):
            batching_params(n=256)

    def test_slot_order_is_permutation(self, encoder):
        assert sorted(encoder._slot_to_pos) == list(range(encoder.n))
        assert np.array_equal(
            encoder._pos_to_slot[encoder._slot_to_pos], np.arange(encoder.n)
        )


class TestEncodeDecode:
    def test_round_trip_full(self, encoder, ctx):
        values = np.arange(64) % 257
        assert np.array_equal(encoder.decode(encoder.encode(values, ctx)), values)

    def test_round_trip_partial_pads_zero(self, encoder, ctx):
        values = np.array([5, 6, 7])
        decoded = encoder.decode(encoder.encode(values, ctx))
        assert list(decoded[:3]) == [5, 6, 7]
        assert not decoded[3:].any()

    def test_too_many_slots_raises(self, encoder, ctx):
        with pytest.raises(ValueError):
            encoder.encode(np.zeros(65), ctx)

    def test_values_reduced_mod_t(self, encoder, ctx):
        decoded = encoder.decode(encoder.encode([257 + 3], ctx))
        assert decoded[0] == 3

    @given(st.lists(st.integers(min_value=0, max_value=256), min_size=1, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, values):
        params = batching_params(n=64, q_bits=60)
        encoder = BatchEncoder(params)
        ctx = BFVContext(params, seed=1)
        decoded = encoder.decode(encoder.encode(values, ctx))
        assert list(decoded[: len(values)]) == values


class TestSlotSemantics:
    def test_addition_is_slotwise(self, encoder, ctx, keys):
        sk, pk, _ = keys
        a = np.arange(64)
        b = (np.arange(64) * 3 + 1) % 257
        ca = ctx.encrypt(encoder.encode(a, ctx), pk)
        cb = ctx.encrypt(encoder.encode(b, ctx), pk)
        decoded = encoder.decode(ctx.decrypt(ctx.add(ca, cb), sk))
        assert np.array_equal(decoded, (a + b) % 257)

    def test_multiplication_is_slotwise(self, encoder, ctx, keys):
        sk, pk, rlk = keys
        a = np.arange(64)
        b = (np.arange(64) + 2) % 257
        ca = ctx.encrypt(encoder.encode(a, ctx), pk)
        cb = ctx.encrypt(encoder.encode(b, ctx), pk)
        decoded = encoder.decode(ctx.decrypt(ctx.multiply(ca, cb, rlk), sk))
        assert np.array_equal(decoded, (a * b) % 257)

    def test_plain_multiplication_is_slotwise(self, encoder, ctx, keys):
        sk, pk, _ = keys
        a = np.arange(64)
        b = np.full(64, 5)
        ca = ctx.encrypt(encoder.encode(a, ctx), pk)
        decoded = encoder.decode(
            ctx.decrypt(ctx.multiply_plain(ca, encoder.encode(b, ctx)), sk)
        )
        assert np.array_equal(decoded, (a * 5) % 257)
