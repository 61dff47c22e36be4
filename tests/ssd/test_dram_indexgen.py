"""Unit tests for the index-generation unit."""

import numpy as np
import pytest

from repro.ssd import IndexGenerationUnit


class TestIndexGenerationUnit:
    def test_flag_equal(self):
        unit = IndexGenerationUnit()
        flags = unit.flag_equal(np.array([1, 2, 3]), np.array([1, 9, 3]))
        assert list(flags) == [True, False, True]

    def test_flag_equal_shape_check(self):
        unit = IndexGenerationUnit()
        with pytest.raises(ValueError):
            unit.flag_equal(np.zeros(3), np.zeros(4))

    def test_flag_value(self):
        unit = IndexGenerationUnit()
        flags = unit.flag_value(np.array([7, 0, 7]), 7)
        assert list(flags) == [True, False, True]

    def test_indices_from_flags(self):
        unit = IndexGenerationUnit()
        assert unit.indices_from_flags(np.array([False, True, True])) == [1, 2]

    def test_cost_accounting(self):
        unit = IndexGenerationUnit()
        unit.flag_value(np.zeros(4), 1)
        unit.flag_value(np.zeros(4), 1)
        assert unit.pages_processed == 2
        assert unit.busy_seconds == pytest.approx(2 * 3.42e-6)
        assert unit.energy_joules == pytest.approx(2 * 0.18e-6)

    def test_latency_hidden_under_flash_read(self):
        # 3.42us < 22.5us (the paper's overlap argument)
        assert IndexGenerationUnit().costs.hidden_under_read

    def test_result_buffer_matches_paper(self):
        # 4KB x 8 channels x 8 dies x 2 planes = 0.5 MB (§6.3)
        unit = IndexGenerationUnit()
        assert unit.result_buffer_bytes(8, 8, 2, 4096) == 512 * 1024
