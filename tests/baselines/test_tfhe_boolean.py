"""Tests for the Boolean baseline running on real TFHE gates."""

import numpy as np
import pytest

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
    def test_gate_formula(self):
        # alignments * (2y - 1)
        assert TfheBooleanMatcher.gates_for(db_bits=100, query_bits=8) == 93 * 15

    def test_gate_formula_no_alignments(self):
        assert TfheBooleanMatcher.gates_for(db_bits=4, query_bits=8) == 0

    def test_gate_count_model_matches_executed_circuit(self):
        """The Figure 2b/7 gate model is the circuit a search runs."""
        m = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=4)
        bits = np.random.default_rng(4).integers(0, 2, 64).astype(np.uint8)
        m.search(m.encrypt_database(bits), bits[10:18])
        assert m.ctx.total_gates() == TfheBooleanMatcher.gates_for(64, 8)
        assert m.ctx.bootstrap_count == TfheBooleanMatcher.gates_for(64, 8)

    def test_stats_track_gates(self):
        m = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=2)
        db = m.encrypt_database(np.array([1, 0, 1, 1], dtype=np.uint8))
        m.search(db, np.array([1, 1]))
        # 3 alignments x (2 XNOR + 1 AND), counted by the context
        assert m.ctx.gate_counts["xnor"] == 6
        assert m.ctx.gate_counts["and"] == 3
        assert m.ctx.total_gates() == TfheBooleanMatcher.gates_for(4, 2) == 9
        assert m.ctx.bootstrap_count == 9  # every binary gate bootstraps once

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
