"""Unit tests for the Boolean (per-bit XNOR/AND) baseline."""

import numpy as np
import pytest

from repro.baselines import BooleanMatcher, find_all_matches
from repro.he import BFVParams, generate_keys
from repro.utils.bits import random_bits


@pytest.fixture(scope="module")
def setup(bool_params):
    matcher = BooleanMatcher(bool_params, seed=33)
    sk, pk, rlk = generate_keys(bool_params, seed=33, relin=True)
    return matcher, sk, pk, rlk


class TestEncryption:
    def test_one_ciphertext_per_bit(self, setup, rng):
        matcher, _, pk, _ = setup
        db = matcher.encrypt_database(random_bits(10, rng), pk)
        assert db.bit_length == 10

    def test_footprint_blowup(self, setup, rng):
        matcher, _, pk, _ = setup
        # >200x expansion over raw bytes
        raw = 8  # bytes
        db = matcher.encrypt_database(random_bits(raw * 8, rng), pk)
        assert db.serialized_bytes / raw > 200


class TestSearch:
    def test_finds_match_any_alignment(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db_bits = random_bits(20, rng)
        q = db_bits[7:12].copy()
        db = matcher.encrypt_database(db_bits, pk)
        got = matcher.search(db, q, pk, sk, rlk)
        assert got == find_all_matches(db_bits, q)

    def test_no_match(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db_bits = np.zeros(12, dtype=np.uint8)
        q = np.ones(4, dtype=np.uint8)
        db = matcher.encrypt_database(db_bits, pk)
        assert matcher.search(db, q, pk, sk, rlk) == []

    def test_single_bit_query(self, setup, rng):
        matcher, sk, pk, rlk = setup
        db_bits = np.array([0, 1, 0, 1], dtype=np.uint8)
        db = matcher.encrypt_database(db_bits, pk)
        got = matcher.search(db, np.array([1], dtype=np.uint8), pk, sk, rlk)
        assert got == [1, 3]


class TestGateAccounting:
    def test_gate_formula(self):
        # alignments * (2y - 1)
        assert BooleanMatcher.gates_for(db_bits=100, query_bits=8) == 93 * 15

    def test_gate_formula_no_alignments(self):
        assert BooleanMatcher.gates_for(db_bits=4, query_bits=8) == 0

    def test_stats_track_search(self, bool_params, rng):
        matcher = BooleanMatcher(bool_params, seed=34)
        sk, pk, rlk = generate_keys(bool_params, seed=34, relin=True)
        db_bits = random_bits(10, rng)
        db = matcher.encrypt_database(db_bits, pk)
        matcher.search(db, random_bits(4, rng), pk, sk, rlk)
        alignments = 10 - 4 + 1
        assert matcher.stats.xnor_gates == alignments * 4
        assert matcher.stats.and_gates == alignments * 3
        assert matcher.stats.total_gates == alignments * 7
