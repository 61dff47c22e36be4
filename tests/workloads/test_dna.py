"""Unit tests for the DNA case-study workload."""

import numpy as np
import pytest

from repro.workloads import (
    BITS_PER_BASE,
    DnaWorkloadGenerator,
    random_genome,
    sequence_to_bits,
)


class TestEncoding:
    def test_roundtrip(self):
        seq = "ACGTACGT"
        assert list(sequence_to_bits(seq)) == [0, 0, 0, 1, 1, 0, 1, 1] * 2

    def test_two_bits_per_base(self):
        assert len(sequence_to_bits("ACGT")) == 4 * BITS_PER_BASE

    def test_fixed_encoding(self):
        assert list(sequence_to_bits("A")) == [0, 0]
        assert list(sequence_to_bits("C")) == [0, 1]
        assert list(sequence_to_bits("G")) == [1, 0]
        assert list(sequence_to_bits("T")) == [1, 1]

    def test_invalid_base(self):
        with pytest.raises(ValueError):
            sequence_to_bits("ACGN")


class TestRandomGenome:
    def test_length_and_alphabet(self, rng):
        g = random_genome(500, rng)
        assert len(g) == 500
        assert set(g).issubset(set("ACGT"))

    def test_roughly_uniform(self, rng):
        g = random_genome(8000, rng)
        for base in "ACGT":
            assert 0.2 < g.count(base) / 8000 < 0.3


class TestWorkloadGenerator:
    def test_reads_planted_at_their_positions(self):
        gen = DnaWorkloadGenerator(seed=1)
        wl = gen.generate(num_bases=500, read_length_bases=20, num_reads=3)
        for read in wl.reads:
            start = read.position_bases
            assert wl.genome[start : start + 20] == read.sequence

    def test_chunk_alignment(self):
        gen = DnaWorkloadGenerator(seed=2)
        wl = gen.generate(num_bases=400, read_length_bases=16, num_reads=4)
        for read in wl.reads:
            assert read.position_bits % 16 == 0

    def test_unaligned_mode(self):
        gen = DnaWorkloadGenerator(seed=3)
        wl = gen.generate(
            num_bases=400, read_length_bases=16, num_reads=5, chunk_aligned=False
        )
        assert any(r.position_bits % 16 != 0 for r in wl.reads)

    def test_reads_do_not_overlap(self):
        gen = DnaWorkloadGenerator(seed=4)
        wl = gen.generate(num_bases=600, read_length_bases=24, num_reads=5)
        spans = sorted(
            (r.position_bases, r.position_bases + 24) for r in wl.reads
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_read_bits_accessor(self):
        gen = DnaWorkloadGenerator(seed=5)
        wl = gen.generate(num_bases=200, read_length_bases=10, num_reads=1)
        bits = wl.read_bits(0)
        assert np.array_equal(bits, sequence_to_bits(wl.reads[0].sequence))

    def test_genome_bits_contains_read_bits(self):
        gen = DnaWorkloadGenerator(seed=6)
        wl = gen.generate(num_bases=300, read_length_bases=12, num_reads=2)
        genome_bits = wl.genome_bits
        for i, read in enumerate(wl.reads):
            off = read.position_bits
            assert np.array_equal(
                genome_bits[off : off + len(read.sequence) * BITS_PER_BASE], wl.read_bits(i)
            )

    def test_read_longer_than_genome(self):
        with pytest.raises(ValueError):
            DnaWorkloadGenerator().generate(10, 20, 1)

    def test_impossible_packing(self):
        with pytest.raises(RuntimeError):
            DnaWorkloadGenerator(seed=7).generate(
                num_bases=50, read_length_bases=20, num_reads=10
            )

