"""Tests for the Boolean baseline running on real TFHE gates."""

import numpy as np
import pytest

from repro.baselines.boolean_match import BooleanMatcher
from repro.baselines.plaintext import find_all_matches
from repro.baselines.tfhe_boolean import TfheBooleanMatcher
from repro.tfhe import TFHEParams


@pytest.fixture(scope="module")
def matcher():
    return TfheBooleanMatcher(TFHEParams.test_tiny(), seed=11)


class TestSearch:
    def test_single_match(self, matcher):
        db_bits = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
        db = matcher.encrypt_database(db_bits)
        assert matcher.search(db, np.array([1, 1, 0])) == [2]

    def test_multiple_matches(self, matcher):
        db_bits = np.array([1, 0, 1, 0, 1], dtype=np.uint8)
        db = matcher.encrypt_database(db_bits)
        assert matcher.search(db, np.array([1, 0])) == [0, 2]

    def test_no_match(self, matcher):
        db_bits = np.zeros(6, dtype=np.uint8)
        db = matcher.encrypt_database(db_bits)
        assert matcher.search(db, np.array([1, 1])) == []

    def test_matches_oracle(self, matcher):
        rng = np.random.default_rng(4)
        db_bits = rng.integers(0, 2, 12).astype(np.uint8)
        query = np.array([1, 0, 1], dtype=np.uint8)
        db = matcher.encrypt_database(db_bits)
        assert matcher.search(db, query) == find_all_matches(db_bits, query)

    def test_single_bit_query(self, matcher):
        db_bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        db = matcher.encrypt_database(db_bits)
        assert matcher.search(db, np.array([1])) == [1, 3]


class TestCostStructure:
    def test_gate_count_model_matches_bfv_standin(self):
        """Real TFHE and the BFV stand-in evaluate the same circuit."""
        assert TfheBooleanMatcher.gates_for(64, 8) == BooleanMatcher.gates_for(64, 8)

    def test_stats_track_gates(self):
        m = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=2)
        db = m.encrypt_database(np.array([1, 0, 1, 1], dtype=np.uint8))
        m.search(db, np.array([1, 1]))
        # 3 alignments x (2 XNOR + 1 AND).
        assert m.stats.xnor_gates == 6
        assert m.stats.and_gates == 3
        assert m.stats.bootstraps == 9  # every binary gate bootstraps once

    def test_footprint_is_per_bit(self, matcher):
        db_bits = np.ones(16, dtype=np.uint8)
        db = matcher.encrypt_database(db_bits)
        assert db.serialized_bytes == 16 * matcher.params.lwe_ciphertext_bytes

    def test_expansion_factor_blowup(self, matcher):
        """Per-bit encryption blows the database up by orders of
        magnitude — the >200x effect of §3.1 (here 8 * (n+1) * 4)."""
        db = matcher.encrypt_database(np.ones(16, dtype=np.uint8))
        factor = db.serialized_bytes / (16 // 8)
        assert factor == 8 * matcher.params.lwe_ciphertext_bytes

    def test_unlimited_depth_long_query(self):
        """A query longer than any levelled-BFV budget still matches:
        gate outputs are bootstrapped fresh (flexible query size)."""
        m = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=8)
        db_bits = np.array([1, 0, 1, 1, 0, 1, 1, 1, 0, 1], dtype=np.uint8)
        db = m.encrypt_database(db_bits)
        query = db_bits[1:9]  # 8-bit query -> AND depth 3 + chains
        assert m.search(db, query) == [1]
