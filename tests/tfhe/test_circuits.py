"""Tests for word-level homomorphic arithmetic over TFHE gates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tfhe import TFHEContext, TFHEParams
from repro.tfhe.circuits import TfheArithmetic


@pytest.fixture(scope="module")
def arith():
    return TfheArithmetic(TFHEContext(TFHEParams.test_tiny(), seed=13))


class TestWordCodec:
    def test_round_trip(self, arith):
        word = arith.encrypt_word(0b1011, 4)
        assert arith.decrypt_word(word) == 0b1011

    def test_zero_and_max(self, arith):
        assert arith.decrypt_word(arith.encrypt_word(0, 4)) == 0
        assert arith.decrypt_word(arith.encrypt_word(15, 4)) == 15

    def test_out_of_range_rejected(self, arith):
        with pytest.raises(ValueError):
            arith.encrypt_word(16, 4)
        with pytest.raises(ValueError):
            arith.encrypt_word(-1, 4)

    def test_width_property(self, arith):
        assert arith.encrypt_word(3, 6).width == 6


class TestAdder:
    @pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (5, 3), (7, 7), (15, 1)])
    def test_add_mod_16(self, arith, a, b):
        wa, wb = arith.encrypt_word(a, 4), arith.encrypt_word(b, 4)
        assert arith.decrypt_word(arith.add(wa, wb)) == (a + b) % 16

    def test_carry_chain_propagates(self, arith):
        """0b0111 + 1 exercises a full carry ripple."""
        wa, wb = arith.encrypt_word(7, 4), arith.encrypt_word(1, 4)
        assert arith.decrypt_word(arith.add(wa, wb)) == 8

    def test_width_mismatch(self, arith):
        with pytest.raises(ValueError):
            arith.add(arith.encrypt_word(1, 4), arith.encrypt_word(1, 3))

    def test_gate_count_model(self, arith):
        ctx = arith.ctx
        a, b = arith.encrypt_word(5, 4), arith.encrypt_word(9, 4)
        before = ctx.total_gates()
        arith.add(a, b)
        assert ctx.total_gates() - before == TfheArithmetic.gates_per_add(4)

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
    @settings(max_examples=8, deadline=None)
    def test_add_matches_plain(self, a, b):
        arith = TfheArithmetic(TFHEContext(TFHEParams.test_tiny(), seed=a * 8 + b))
        wa, wb = arith.encrypt_word(a, 3), arith.encrypt_word(b, 3)
        assert arith.decrypt_word(arith.add(wa, wb)) == (a + b) % 8


class TestMatchPolynomialFlow:
    def test_match_detection_without_decryption(self, arith):
        """all-ones test on the encrypted sum: the Boolean approach can
        do Algorithm 1's index generation under encryption."""
        a = arith.encrypt_word(0b1010, 4)
        b = arith.encrypt_word(0b0101, 4)
        total = arith.add(a, b)
        assert arith.ctx.decrypt(arith.ctx.and_reduce(total.bits)) == 1

    def test_mismatch_detected(self, arith):
        a = arith.encrypt_word(0b1010, 4)
        b = arith.encrypt_word(0b0100, 4)  # not the negation
        total = arith.add(a, b)
        assert arith.ctx.decrypt(arith.ctx.and_reduce(total.bits)) == 0

    def test_gate_cost_vs_latch_cost(self):
        """The trade the paper quantifies: a 32-bit homomorphic add is
        160 bootstrapped gates; in flash it is 32 latch passes."""
        from repro.flash.timing import FlashTimings

        gates = TfheArithmetic.gates_per_add(32)
        assert gates == 160
        t = FlashTimings()
        ifp_seconds = 32 * t.t_bop_add
        tfhe_seconds = gates * 10e-3  # ~10 ms/gate on the paper's CPU
        assert tfhe_seconds / ifp_seconds > 1000  # orders of magnitude
