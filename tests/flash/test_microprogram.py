"""Unit tests for the bop_add µ-program — the 13-step bit-serial
addition of Figure 5."""

import numpy as np
import pytest

from repro.flash import (
    BitSerialAdder,
    FlashArray,
    FlashGeometry,
    FlashTimings,
    PAPER_T_BIT_ADD,
    vertical_to_words,
    words_to_vertical,
)


def load_words(adder, block_index, count, wl_offset=0):
    """Read a stored operand back with plain flash reads."""
    block = adder.plane.block(block_index)
    rows = [block.read_wordline(wl_offset + i) for i in range(adder.word_bits)]
    return vertical_to_words(np.stack(rows), count)


@pytest.fixture()
def plane():
    geo = FlashGeometry.functional(num_bitlines=128, wordlines=96)
    return FlashArray(geo).plane(0)


class TestVerticalLayout:
    def test_roundtrip(self, rng):
        words = rng.integers(0, 1 << 32, 50).astype(np.int64)
        matrix = words_to_vertical(words, 32, 128)
        assert np.array_equal(vertical_to_words(matrix, 50), words)

    def test_lsb_on_first_row(self):
        matrix = words_to_vertical(np.array([1]), 32, 8)
        assert matrix[0, 0] == 1
        assert not matrix[1:, 0].any()

    def test_too_many_words_raises(self):
        with pytest.raises(ValueError):
            words_to_vertical(np.zeros(9), 8, 8)

    def test_unused_bitlines_zero(self):
        matrix = words_to_vertical(np.array([0xFFFF]), 16, 8)
        assert not matrix[:, 1:].any()


class TestBitSerialAddition:
    def test_addition_exact(self, plane, rng):
        adder = BitSerialAdder(plane, word_bits=32)
        a = rng.integers(0, 1 << 32, 100).astype(np.int64)
        b = rng.integers(0, 1 << 32, 100).astype(np.int64)
        adder.store_words(0, a)
        assert np.array_equal(adder.add(0, b), (a + b) % (1 << 32))

    def test_carry_chain_max_values(self, plane):
        adder = BitSerialAdder(plane, word_bits=32)
        a = np.array([(1 << 32) - 1, (1 << 32) - 1], dtype=np.int64)
        b = np.array([1, (1 << 32) - 1], dtype=np.int64)
        adder.store_words(0, a)
        got = adder.add(0, b)
        assert got[0] == 0  # wraps to zero
        assert got[1] == (1 << 32) - 2

    def test_zero_plus_zero(self, plane):
        adder = BitSerialAdder(plane, word_bits=32)
        adder.store_words(0, np.zeros(4, dtype=np.int64))
        assert not adder.add(0, np.zeros(4, dtype=np.int64)).any()

    def test_addition_is_mod_2_pow_w(self, plane):
        adder = BitSerialAdder(plane, word_bits=16)
        a = np.array([0xFFFF, 0x8000], dtype=np.int64)
        b = np.array([0x0001, 0x8000], dtype=np.int64)
        adder.store_words(1, a)
        got = adder.add(1, b, wl_offset=0)
        assert list(got) == [0, 0]

    def test_wordline_offset_slots(self, plane, rng):
        adder = BitSerialAdder(plane, word_bits=32)
        a1 = rng.integers(0, 1 << 32, 10).astype(np.int64)
        a2 = rng.integers(0, 1 << 32, 10).astype(np.int64)
        adder.store_words(0, a1, wl_offset=0)
        adder.store_words(0, a2, wl_offset=32)
        b = rng.integers(0, 1 << 32, 10).astype(np.int64)
        assert np.array_equal(adder.add(0, b, wl_offset=0), (a1 + b) % (1 << 32))
        assert np.array_equal(adder.add(0, b, wl_offset=32), (a2 + b) % (1 << 32))

    def test_double_program_raises(self, plane, rng):
        adder = BitSerialAdder(plane, word_bits=32)
        words = rng.integers(0, 1 << 32, 4).astype(np.int64)
        adder.store_words(0, words)
        with pytest.raises(RuntimeError):
            adder.store_words(0, words)

    def test_load_words_roundtrip(self, plane, rng):
        adder = BitSerialAdder(plane, word_bits=32)
        words = rng.integers(0, 1 << 32, 16).astype(np.int64)
        adder.store_words(2, words, wl_offset=32)
        assert np.array_equal(load_words(adder, 2, 16, wl_offset=32), words)

    def test_stored_operand_unmodified_by_add(self, plane, rng):
        # bop_add computes entirely in latches: no program/erase cycles
        adder = BitSerialAdder(plane, word_bits=32)
        a = rng.integers(0, 1 << 32, 8).astype(np.int64)
        adder.store_words(0, a)
        erase_before = plane.block(0).erase_count
        adder.add(0, rng.integers(0, 1 << 32, 8).astype(np.int64))
        assert np.array_equal(load_words(adder, 0, 8), a)
        assert plane.block(0).erase_count == erase_before


class TestOpCountsMatchEqn10:
    def test_per_word_counts(self, plane, rng):
        adder = BitSerialAdder(plane, word_bits=32)
        adder.store_words(0, rng.integers(0, 1 << 32, 4).astype(np.int64))
        before = dict(plane.timing.counts)
        adder.add(0, rng.integers(0, 1 << 32, 4).astype(np.int64))
        counts = {op: n - before.get(op, 0) for op, n in plane.timing.counts.items()}
        expected = {op: n * 32 for op, n in BitSerialAdder.OPS_PER_BIT.items()}
        # the carry-reset adds one extra latch transfer
        assert counts["read"] == expected["read"]
        assert counts["xor"] == expected["xor"]
        assert counts["and_or"] == expected["and_or"]
        assert counts["dma"] == expected["dma"]
        assert counts["latch_transfer"] == expected["latch_transfer"] + 1

    def test_total_latency_matches_eqn9(self, plane, rng):
        adder = BitSerialAdder(plane, word_bits=32)
        adder.store_words(0, rng.integers(0, 1 << 32, 4).astype(np.int64))
        start = plane.timing.total_seconds
        adder.add(0, rng.integers(0, 1 << 32, 4).astype(np.int64))
        t = FlashTimings()
        expected = 32 * t.t_bit_add + t.t_latch_transfer
        assert plane.timing.total_seconds - start == pytest.approx(expected)

    def test_t_bit_add_matches_paper(self):
        # Eqn 9 with Table 3 constants reproduces the quoted 29.38 us
        assert FlashTimings().t_bit_add == pytest.approx(PAPER_T_BIT_ADD, rel=0.01)

    def test_ops_per_bit_budget(self):
        assert BitSerialAdder.OPS_PER_BIT == {
            "read": 1,
            "xor": 2,
            "latch_transfer": 5,
            "and_or": 4,
            "dma": 2,
        }
