"""Tests for the secure seed-and-vote DNA read mapper."""

import numpy as np
import pytest

from repro.core import ClientConfig
from repro.he import BFVParams
from repro.workloads.dna import DnaWorkloadGenerator, random_genome
from repro.workloads.readmapper import (
    MappingResult,
    SecureReadMapper,
    Seed,
    SeedExtractor,
)


class TestSeedExtractor:
    def test_exact_division(self):
        seeds = SeedExtractor(4).extract("ACGTACGTACGT")
        assert [s.sequence for s in seeds] == ["ACGT", "ACGT", "ACGT"]
        assert [s.read_offset_bases for s in seeds] == [0, 4, 8]

    def test_trailing_fragment_dropped(self):
        seeds = SeedExtractor(4).extract("ACGTACGTAC")
        assert len(seeds) == 2

    def test_read_shorter_than_seed_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            SeedExtractor(8).extract("ACGT")

    def test_invalid_seed_length(self):
        with pytest.raises(ValueError):
            SeedExtractor(0)

    def test_seed_bit_offsets(self):
        seed = Seed("ACGT", read_offset_bases=4)
        assert seed.read_offset_bits == 8


@pytest.fixture(scope="module")
def mapper():
    gen = DnaWorkloadGenerator(seed=7)
    workload = gen.generate(
        num_bases=320, read_length_bases=16, num_reads=3, chunk_aligned=True
    )
    m = SecureReadMapper(
        workload.genome, ClientConfig(BFVParams.test_small(64)), seed_bases=8
    )
    return m, workload


class TestMapping:
    def test_planted_reads_map_to_their_positions(self, mapper):
        m, workload = mapper
        for read in workload.reads:
            result = m.map_read(read.sequence)
            assert result.candidates
            positions = [c.position_bases for c in result.candidates]
            assert read.position_bases in positions
            top = result.best
            assert top.votes == result.seeds_searched or read.position_bases in positions

    def test_confident_mapping_is_correct(self, mapper):
        m, workload = mapper
        read = workload.reads[0]
        result = m.map_read(read.sequence)
        if result.confident:
            assert m.verify(result) is not None

    def test_foreign_read_does_not_map_confidently(self, mapper):
        m, _ = mapper
        rng = np.random.default_rng(999)
        foreign = random_genome(16, rng)
        result = m.map_read(foreign)
        # A random 16-base read almost surely has no full-vote candidate
        # in a 320-base genome; accept low-vote noise.
        assert not result.confident or m.verify(result) is not None

    def test_hom_additions_accumulate(self, mapper):
        m, workload = mapper
        result = m.map_read(workload.reads[0].sequence)
        assert result.hom_additions > 0

    def test_seeds_searched_counts(self, mapper):
        m, workload = mapper
        result = m.map_read(workload.reads[0].sequence)
        assert result.seeds_searched == 2  # 16 bases / 8-base seeds

    def test_verify_rejects_wrong_candidates(self, mapper):
        m, _ = mapper
        fake = MappingResult(
            read="AAAA",
            candidates=[],
            seeds_searched=0,
            hom_additions=0,
        )
        assert m.verify(fake) is None
        assert fake.best is None
        assert not fake.candidates


class TestVoteSemantics:
    def test_votes_deduplicate_seed_indices(self):
        """A seed matching twice at offsets implying the same start
        position still counts one supporting seed entry per hit, but
        the supporting list is deduplicated."""
        reference = "ACGTACGTACGTACGTGGCC"
        m = SecureReadMapper(
            reference, ClientConfig(BFVParams.test_small(64)), seed_bases=8
        )
        result = m.map_read("ACGTACGTACGTACGT")
        for cand in result.candidates:
            assert cand.supporting_seeds == sorted(set(cand.supporting_seeds))

    def test_min_votes_filter(self):
        reference = "ACGTACGTGGTTACGTACGTACGTGGCCAAGG"
        m = SecureReadMapper(
            reference,
            ClientConfig(BFVParams.test_small(64)),
            seed_bases=8,
            min_votes=2,
        )
        result = m.map_read("GGTTACGTACGTACGT")
        assert all(c.votes >= 2 for c in result.candidates)
        assert result.best.position_bases == 8
