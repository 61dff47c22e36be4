"""Cross-module integration: the real-TFHE Boolean baseline against the
DNA workload, the plaintext oracle, and the CIPHERMATCH engine."""

import numpy as np
import pytest

from repro.baselines import TfheBooleanMatcher, find_all_matches
from repro.core import ClientConfig
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.tfhe import TFHEParams
from repro.workloads import DnaWorkloadGenerator, sequence_to_bits


class TestTfheOnDna:
    def test_dna_seed_search(self):
        """A 4-base seed search over a small genome on real TFHE."""
        workload = DnaWorkloadGenerator(seed=1).generate(
            num_bases=12, read_length_bases=4, num_reads=1
        )
        genome_bits = workload.genome_bits
        seed_bits = workload.read_bits(0)
        matcher = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=5)
        db = matcher.encrypt_database(genome_bits)
        matches = matcher.search(db, seed_bits)
        assert matches == find_all_matches(genome_bits, seed_bits)
        assert workload.reads[0].position_bits in matches

    def test_agrees_with_ciphermatch_pipeline(self):
        """Boolean TFHE and CIPHERMATCH find the same 16-bit matches."""
        rng = np.random.default_rng(2)
        db_bits = rng.integers(0, 2, 48).astype(np.uint8)
        query = db_bits[16:32].copy()

        tfhe = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=3)
        tfhe_matches = tfhe.search(tfhe.encrypt_database(db_bits), query)

        engine = ShardedSearchEngine(ClientConfig(BFVParams.test_small(64)))
        engine.outsource(db_bits)
        cm_matches = engine.search(query).matches

        oracle = find_all_matches(db_bits, query)
        assert tfhe_matches == oracle
        assert cm_matches == oracle


class TestReadMapperWithDnaText:
    def test_maps_read_from_real_sequence_string(self):
        from repro.workloads import SecureReadMapper

        reference = "ACGTTGCAACGTACGTGGCCAAGGTTTTACGT"
        mapper = SecureReadMapper(
            reference, ClientConfig(BFVParams.test_small(64)), seed_bases=8
        )
        read = reference[8:24]
        result = mapper.map_read(read)
        assert mapper.verify(result) == 8
        # the mapping used bits produced by the same encoding everywhere
        assert np.array_equal(
            sequence_to_bits(read), sequence_to_bits(reference)[16:48]
        )
