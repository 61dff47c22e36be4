"""Unit tests for the flash structural model: blocks, planes, geometry."""

import numpy as np
import pytest

from repro.flash import Block, CellMode, FlashGeometry, Plane
from repro.flash.timing import FlashTimings


class TestFlashGeometry:
    def test_paper_geometry_totals(self):
        g = FlashGeometry()
        assert g.total_planes == 8 * 8 * 2 == 128
        assert g.bitlines_per_plane == 4096 * 8

    def test_parallel_bitlines(self):
        g = FlashGeometry()
        assert g.parallel_bitlines == 128 * 32768

    def test_functional_geometry_is_small(self):
        g = FlashGeometry.functional(num_bitlines=256, wordlines=64)
        assert g.bitlines_per_plane == 256
        assert g.wordlines_per_block == 64


class TestBlock:
    def test_program_and_read(self, rng):
        block = Block(wordlines=8, bitlines=16)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        block.program_wordline(3, bits)
        assert np.array_equal(block.read_wordline(3), bits)

    def test_program_twice_requires_erase(self, rng):
        block = Block(wordlines=8, bitlines=16)
        bits = rng.integers(0, 2, 16).astype(np.uint8)
        block.program_wordline(0, bits)
        with pytest.raises(RuntimeError):
            block.program_wordline(0, bits)
        block.erase()
        block.program_wordline(0, bits)  # fine after erase

    def test_erase_clears_and_counts(self, rng):
        block = Block(wordlines=4, bitlines=8)
        block.program_wordline(1, np.ones(8, dtype=np.uint8))
        block.erase()
        assert not block.cells.any()
        assert block.erase_count == 1

    def test_shape_validation(self):
        block = Block(wordlines=4, bitlines=8)
        with pytest.raises(ValueError):
            block.program_wordline(0, np.ones(4, dtype=np.uint8))


class TestPlane:
    @pytest.fixture()
    def plane(self):
        return Plane(FlashGeometry.functional(num_bitlines=64, wordlines=16))

    def test_block_caching(self, plane):
        assert plane.block(0) is plane.block(0)
        assert plane.block(0) is not plane.block(1)

    def test_block_range_check(self, plane):
        with pytest.raises(IndexError):
            plane.block(10_000)

    def test_read_to_latch_charges_slc_latency(self, plane, rng):
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        block = plane.block(0, CellMode.SLC)
        block.program_wordline(2, bits)
        plane.latches.sense(block.read_wordline(2), slc=True)
        assert np.array_equal(plane.latches.s_latch, bits)
        assert plane.timing.total_seconds == pytest.approx(
            FlashTimings().t_read_slc
        )

    def test_tlc_read_slower(self):
        plane = Plane(FlashGeometry.functional(num_bitlines=64, wordlines=16))
        block = plane.block(0, CellMode.TLC)
        block.program_wordline(0, np.zeros(64, dtype=np.uint8))
        plane.latches.sense(block.read_wordline(0), slc=False)
        t = FlashTimings()
        assert plane.timing.total_seconds == pytest.approx(t.t_read_tlc)
        assert t.t_read_tlc > t.t_read_slc
