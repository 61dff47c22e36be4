"""Unit tests for the Boolean-mode HE context (TFHE stand-in)."""

import numpy as np
import pytest

from repro.he import BFVParams, BooleanContext, GateCostModel, KeyGenerator


@pytest.fixture(scope="module")
def bool_setup(bool_params):
    bctx = BooleanContext(bool_params, seed=31)
    gen = KeyGenerator(bool_params, seed=31)
    sk = gen.secret_key()
    pk = gen.public_key(sk)
    rlk = gen.relin_key(sk)
    return bctx, sk, pk, rlk


class TestBitEncryption:
    def test_roundtrip(self, bool_setup):
        bctx, sk, pk, _ = bool_setup
        for bit in (0, 1):
            ct = bctx.encrypt_bit(bit, pk)
            assert bctx.decrypt_bit(ct, sk) == bit

    def test_vector_roundtrip(self, bool_setup):
        bctx, sk, pk, _ = bool_setup
        bits = [1, 0, 1, 1, 0]
        cts = bctx.encrypt_bits(bits, pk)
        assert [bctx.decrypt_bit(ct, sk) for ct in cts] == bits

    def test_rejects_non_boolean_params(self):
        with pytest.raises(ValueError):
            BooleanContext(BFVParams.test_small(64))


class TestGates:
    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_xor(self, bool_setup, a, b):
        bctx, sk, pk, _ = bool_setup
        out = bctx.xor(bctx.encrypt_bit(a, pk), bctx.encrypt_bit(b, pk))
        assert bctx.decrypt_bit(out, sk) == a ^ b

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_xnor(self, bool_setup, a, b):
        bctx, sk, pk, _ = bool_setup
        out = bctx.xnor(bctx.encrypt_bit(a, pk), bctx.encrypt_bit(b, pk))
        assert bctx.decrypt_bit(out, sk) == (1 - (a ^ b))

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_and(self, bool_setup, a, b):
        bctx, sk, pk, rlk = bool_setup
        out = bctx.and_(bctx.encrypt_bit(a, pk), bctx.encrypt_bit(b, pk), rlk)
        assert bctx.decrypt_bit(out, sk) == (a & b)

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_or(self, bool_setup, a, b):
        bctx, sk, pk, rlk = bool_setup
        out = bctx.or_(bctx.encrypt_bit(a, pk), bctx.encrypt_bit(b, pk), rlk)
        assert bctx.decrypt_bit(out, sk) == (a | b)

    def test_not(self, bool_setup):
        bctx, sk, pk, _ = bool_setup
        for a in (0, 1):
            out = bctx.not_(bctx.encrypt_bit(a, pk))
            assert bctx.decrypt_bit(out, sk) == 1 - a

    def test_and_reduce_all_ones(self, bool_setup):
        bctx, sk, pk, rlk = bool_setup
        cts = bctx.encrypt_bits([1] * 8, pk)
        assert bctx.decrypt_bit(bctx.and_reduce(cts, rlk), sk) == 1

    def test_and_reduce_with_zero(self, bool_setup):
        bctx, sk, pk, rlk = bool_setup
        cts = bctx.encrypt_bits([1, 1, 1, 0, 1, 1, 1, 1], pk)
        assert bctx.decrypt_bit(bctx.and_reduce(cts, rlk), sk) == 0

    def test_and_reduce_odd_length(self, bool_setup):
        bctx, sk, pk, rlk = bool_setup
        cts = bctx.encrypt_bits([1, 1, 1, 1, 1], pk)
        assert bctx.decrypt_bit(bctx.and_reduce(cts, rlk), sk) == 1

    def test_and_reduce_single(self, bool_setup):
        bctx, sk, pk, rlk = bool_setup
        ct = bctx.encrypt_bits([1], pk)
        assert bctx.decrypt_bit(bctx.and_reduce(ct, rlk), sk) == 1

    def test_and_reduce_empty_raises(self, bool_setup):
        bctx, _, _, rlk = bool_setup
        with pytest.raises(ValueError):
            bctx.and_reduce([], rlk)


class TestGateAccounting:
    def test_counts(self, bool_params):
        bctx = BooleanContext(bool_params, seed=1)
        gen = KeyGenerator(bool_params, seed=1)
        sk = gen.secret_key()
        pk = gen.public_key(sk)
        rlk = gen.relin_key(sk)
        a, b = bctx.encrypt_bit(1, pk), bctx.encrypt_bit(0, pk)
        bctx.xnor(a, b)
        bctx.and_(a, b, rlk)
        bctx.not_(a)
        assert bctx.gate_counts["xnor"] == 1
        assert bctx.gate_counts["and"] == 1
        assert bctx.gate_counts["not"] == 1
        assert bctx.total_gates() == 3


class TestGateCostModel:
    def test_time_scales_with_gates(self):
        m = GateCostModel()
        assert m.time_for_gates(100) == pytest.approx(100 * m.gate_latency_s)

    def test_batching_divides(self):
        m = GateCostModel()
        assert m.time_for_gates(100, batching=4) == pytest.approx(
            25 * m.gate_latency_s
        )

    def test_batching_floor(self):
        m = GateCostModel()
        assert m.time_for_gates(100, batching=0.5) == m.time_for_gates(100)
