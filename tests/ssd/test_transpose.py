"""Unit tests for the data transposition unit (§4.3.2, §7.1)."""

import numpy as np
import pytest

from repro.ssd import DataTranspositionUnit, TranspositionCosts


class TestFunctional:
    def test_roundtrip(self, rng):
        unit = DataTranspositionUnit(word_bits=32)
        words = rng.integers(0, 1 << 32, 100).astype(np.int64)
        matrix = unit.to_vertical(words, 128)
        assert np.array_equal(unit.to_horizontal(matrix, 100), words)

    def test_vertical_shape(self, rng):
        unit = DataTranspositionUnit(word_bits=16)
        matrix = unit.to_vertical(rng.integers(0, 1 << 16, 10).astype(np.int64), 32)
        assert matrix.shape == (16, 32)


class TestCostAccounting:
    def test_software_latency(self):
        unit = DataTranspositionUnit()
        assert unit.latency_per_page == pytest.approx(13.6e-6)

    def test_hardware_latency(self):
        unit = DataTranspositionUnit(hardware=True)
        assert unit.latency_per_page == pytest.approx(158e-9)

    def test_busy_time_accumulates(self, rng):
        unit = DataTranspositionUnit()
        words = rng.integers(0, 1 << 32, 8).astype(np.int64)
        unit.to_vertical(words, 16)
        unit.to_horizontal(unit.to_vertical(words, 16), 8)
        assert unit.pages_transposed == 3
        assert unit.busy_seconds == pytest.approx(3 * 13.6e-6)


class TestOverlapAnalysis:
    def test_software_hidden_under_slc_read(self):
        # 13.6us < 22.5us: fully overlapped (the paper's argument for a
        # software unit)
        costs = TranspositionCosts()
        assert costs.hidden_under_read(hardware=False)

    def test_software_not_hidden_under_znand(self):
        # Z-NAND reads at 3us expose the software latency (§7.1)
        costs = TranspositionCosts()
        assert not costs.hidden_under_read(
            hardware=False, read_latency=costs.znand_read_latency
        )

    def test_hardware_hidden_under_znand(self):
        costs = TranspositionCosts()
        assert costs.hidden_under_read(
            hardware=True, read_latency=costs.znand_read_latency
        )

    def test_hw_area(self):
        assert TranspositionCosts().hardware_area_mm2 == 0.24
