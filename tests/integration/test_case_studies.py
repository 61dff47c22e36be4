"""The paper's two case studies (§5.3) run end-to-end at functional
scale: exact DNA string matching and encrypted database search."""

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import ClientConfig, SecureStringMatchPipeline
from repro.he import BFVParams
from repro.workloads import (
    DatabaseWorkloadGenerator,
    DnaWorkloadGenerator,
    sequence_to_bits,
)

PARAMS = BFVParams.test_small(64)


class TestDnaCaseStudy:
    @pytest.fixture(scope="class")
    def workload(self):
        return DnaWorkloadGenerator(seed=20).generate(
            num_bases=2000, read_length_bases=16, num_reads=4
        )

    def test_all_planted_reads_found(self, workload):
        pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=21))
        genome_bits = workload.genome_bits
        pipe.outsource_database(genome_bits)
        for i, read in enumerate(workload.reads):
            matches = pipe.search(workload.read_bits(i)).matches
            assert read.position_bits in matches, f"read {i}"
            assert set(matches) == set(
                find_all_matches(genome_bits, workload.read_bits(i))
            )

    def test_absent_read_not_found(self, workload):
        pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=22))
        pipe.outsource_database(workload.genome_bits)
        # a read that differs from the genome everywhere it could align
        absent = sequence_to_bits("A" * 32)
        matches = pipe.search(absent).matches
        assert matches == find_all_matches(workload.genome_bits, absent)

    @pytest.mark.parametrize("read_bases", [8, 16, 32, 64])
    def test_paper_read_lengths(self, read_bases):
        """Query sizes 16-128 bits (8-64 bases) from the paper's range."""
        wl = DnaWorkloadGenerator(seed=23 + read_bases).generate(
            num_bases=1500, read_length_bases=read_bases, num_reads=2
        )
        pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=23))
        pipe.outsource_database(wl.genome_bits)
        for i, read in enumerate(wl.reads):
            assert read.position_bits in pipe.search(wl.read_bits(i)).matches


class TestEncryptedDatabaseSearch:
    @pytest.fixture(scope="class")
    def setup(self):
        gen = DatabaseWorkloadGenerator(seed=30)
        db = gen.generate(num_records=12, key_bytes=8, value_bytes=8)
        mix = gen.query_mix(db, num_queries=10, hit_fraction=0.6)
        pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=31))
        pipe.outsource_database(db.flatten_bits())
        return db, mix, pipe

    def test_key_lookups(self, setup):
        db, mix, pipe = setup
        for key, expected_idx in zip(mix.keys, mix.expected_record_indices):
            matches = pipe.search(db.key_bits(key)).matches
            if expected_idx is not None:
                assert expected_idx * db.record_bits in matches
            else:
                # a miss may still collide with value bytes; verify
                # against the oracle rather than asserting emptiness
                oracle = find_all_matches(db.flatten_bits(), db.key_bits(key))
                assert matches == oracle

    def test_every_hit_is_at_a_record_boundary(self, setup):
        db, mix, pipe = setup
        hits = [
            (k, i) for k, i in zip(mix.keys, mix.expected_record_indices) if i is not None
        ]
        key, idx = hits[0]
        matches = pipe.search(db.key_bits(key)).matches
        assert idx * db.record_bits % db.record_bits == 0
        assert idx * db.record_bits in matches
