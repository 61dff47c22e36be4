"""Exhaustive truth-table tests for the bootstrapped gate set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe import TFHEContext, TFHEParams


@pytest.fixture(scope="module")
def ctx():
    return TFHEContext(TFHEParams.test_small(), seed=5)


BINARY_CASES = [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestTruthTables:
    @pytest.mark.parametrize("a,b", BINARY_CASES)
    def test_nand(self, ctx, a, b):
        assert ctx.decrypt(ctx.nand(ctx.encrypt(a), ctx.encrypt(b))) == (1 - (a & b))

    @pytest.mark.parametrize("a,b", BINARY_CASES)
    def test_and(self, ctx, a, b):
        assert ctx.decrypt(ctx.and_(ctx.encrypt(a), ctx.encrypt(b))) == (a & b)

    @pytest.mark.parametrize("a,b", BINARY_CASES)
    def test_or(self, ctx, a, b):
        assert ctx.decrypt(ctx.or_(ctx.encrypt(a), ctx.encrypt(b))) == (a | b)

    @pytest.mark.parametrize("a,b", BINARY_CASES)
    def test_xor(self, ctx, a, b):
        assert ctx.decrypt(ctx.xor(ctx.encrypt(a), ctx.encrypt(b))) == (a ^ b)

    @pytest.mark.parametrize("a,b", BINARY_CASES)
    def test_xnor(self, ctx, a, b):
        assert ctx.decrypt(ctx.xnor(ctx.encrypt(a), ctx.encrypt(b))) == (1 - (a ^ b))

    @pytest.mark.parametrize("a", [0, 1])
    def test_not(self, ctx, a):
        # NOT is sample negation, no gate
        assert ctx.decrypt(-ctx.encrypt(a)) == 1 - a


class TestCircuits:
    def test_and_reduce_all_ones(self, ctx):
        bits = ctx.encrypt_bits([1] * 6)
        assert ctx.decrypt(ctx.and_reduce(bits)) == 1

    def test_and_reduce_one_zero(self, ctx):
        bits = ctx.encrypt_bits([1, 1, 0, 1, 1])
        assert ctx.decrypt(ctx.and_reduce(bits)) == 0

    def test_and_reduce_single(self, ctx):
        assert ctx.decrypt(ctx.and_reduce([ctx.encrypt(1)])) == 1

    def test_and_reduce_empty_raises(self, ctx):
        with pytest.raises(ValueError):
            ctx.and_reduce([])

    def test_deep_gate_chain(self, ctx):
        """20 chained bootstrapped gates: noise never accumulates.

        This is the unlimited-depth property the paper's §2.2 credits
        the Boolean approach with — levelled BFV cannot do this.
        """
        acc = ctx.encrypt(1)
        for _ in range(20):
            acc = ctx.nand(acc, ctx.encrypt(0))  # NAND(x, 0) = 1 always
        assert ctx.decrypt(acc) == 1

    def test_equality_comparator(self, ctx):
        """4-bit equality via XNOR + AND-reduce, the Boolean string
        matching kernel."""
        a_bits = [1, 0, 1, 1]
        b_bits = [1, 0, 1, 1]
        xnors = [
            ctx.xnor(ctx.encrypt(x), ctx.encrypt(y))
            for x, y in zip(a_bits, b_bits)
        ]
        assert ctx.decrypt(ctx.and_reduce(xnors)) == 1

    def test_inequality_comparator(self, ctx):
        a_bits = [1, 0, 1, 1]
        b_bits = [1, 0, 0, 1]
        xnors = [
            ctx.xnor(ctx.encrypt(x), ctx.encrypt(y))
            for x, y in zip(a_bits, b_bits)
        ]
        assert ctx.decrypt(ctx.and_reduce(xnors)) == 0

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=5))
    @settings(max_examples=10, deadline=None)
    def test_and_reduce_matches_plain(self, bits):
        ctx = TFHEContext(TFHEParams.test_tiny(), seed=3)
        enc = ctx.encrypt_bits(bits)
        assert ctx.decrypt(ctx.and_reduce(enc)) == int(all(bits))


class TestBookkeeping:
    def test_gate_counts(self):
        ctx = TFHEContext(TFHEParams.test_tiny(), seed=9)
        ctx.nand(ctx.encrypt(0), ctx.encrypt(1))
        ctx.xor(ctx.encrypt(0), ctx.encrypt(1))
        assert ctx.gate_counts["nand"] == 1
        assert ctx.gate_counts["xor"] == 1
        assert ctx.total_gates() == 2

    def test_not_is_bootstrap_free(self):
        ctx = TFHEContext(TFHEParams.test_tiny(), seed=9)
        before = ctx.bootstrap_count
        assert ctx.decrypt(-ctx.encrypt(1)) == 0
        assert ctx.bootstrap_count == before

    def test_binary_gates_bootstrap_once(self):
        ctx = TFHEContext(TFHEParams.test_tiny(), seed=9)
        ctx.and_(ctx.encrypt(1), ctx.encrypt(1))
        assert ctx.bootstrap_count == 1

    def test_encrypt_decrypt_vector(self):
        ctx = TFHEContext(TFHEParams.test_tiny(), seed=2)
        bits = [1, 0, 1, 1, 0]
        assert [ctx.decrypt(s) for s in ctx.encrypt_bits(bits)] == bits


class TestParams:
    def test_tfhe_lib_preset_shape(self):
        p = TFHEParams.tfhe_lib()
        assert p.lwe_n == 630 and p.tlwe_n == 1024

    def test_invalid_ring_dimension(self):
        with pytest.raises(ValueError):
            TFHEParams(lwe_n=4, tlwe_n=48)

    def test_gadget_overflow_rejected(self):
        with pytest.raises(ValueError):
            TFHEParams(lwe_n=4, tlwe_n=32, bg_bit=16, bg_levels=3)

    def test_ciphertext_bytes(self):
        p = TFHEParams.test_small()
        assert p.lwe_ciphertext_bytes == 4 * 17
