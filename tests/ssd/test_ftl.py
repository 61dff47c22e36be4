"""Unit tests for the dual-region FTL (§4.3.2)."""

import pytest

from repro.flash import FlashGeometry
from repro.ssd import FlashTranslationLayer, Region


@pytest.fixture()
def ftl():
    return FlashTranslationLayer(
        FlashGeometry.functional(num_bitlines=64, wordlines=64),
        ciphermatch_fraction=0.5,
        word_bits=32,
    )


class TestRegions:
    def test_block_boundary(self, ftl):
        assert ftl.block_boundary == 2  # half of 4 blocks/plane

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            FlashTranslationLayer(FlashGeometry.functional(), ciphermatch_fraction=1.5)


class TestCiphermatchAllocation:
    def test_slots_per_block(self, ftl):
        assert ftl.slots_per_block() == 2  # 64 WLs / 32-bit words

    def test_total_slots(self, ftl):
        g = ftl.geometry
        assert ftl.total_ciphermatch_slots() == g.total_planes * 2 * 2

    def test_striping_across_planes(self, ftl):
        ppas = [ftl.allocate_ciphermatch_slot(i) for i in range(ftl.geometry.total_planes)]
        flat = {p.plane_index(ftl.geometry) for p in ppas}
        assert len(flat) == ftl.geometry.total_planes  # one slot per plane first

    def test_wordline_offsets_within_block(self, ftl):
        total_planes = ftl.geometry.total_planes
        first_round = [ftl.allocate_ciphermatch_slot(i) for i in range(total_planes)]
        second_round = [
            ftl.allocate_ciphermatch_slot(total_planes + i) for i in range(total_planes)
        ]
        assert all(p.wordline == 0 for p in first_round)
        assert all(p.wordline == 32 for p in second_round)

    def test_mapping_table_binding(self, ftl):
        ppa = ftl.allocate_ciphermatch_slot(42)
        assert ftl.lookup(Region.CIPHERMATCH, 42) == ppa
        assert ftl.lookup(Region.CONVENTIONAL, 42) is None

    def test_exhaustion(self, ftl):
        for i in range(ftl.total_ciphermatch_slots()):
            ftl.allocate_ciphermatch_slot(i)
        with pytest.raises(RuntimeError):
            ftl.allocate_ciphermatch_slot(9999)

    def test_blocks_stay_inside_region(self, ftl):
        for i in range(ftl.total_ciphermatch_slots()):
            ppa = ftl.allocate_ciphermatch_slot(i)
            assert ppa.block < ftl.block_boundary


class TestConventionalAllocation:
    def test_blocks_outside_cm_region(self, ftl):
        for i in range(20):
            ppa = ftl.allocate_conventional(i)
            assert ppa.block >= ftl.block_boundary

    def test_separate_tables(self, ftl):
        ftl.allocate_ciphermatch_slot(1)
        ftl.allocate_conventional(1)
        cm = ftl.lookup(Region.CIPHERMATCH, 1)
        conv = ftl.lookup(Region.CONVENTIONAL, 1)
        assert cm != conv
