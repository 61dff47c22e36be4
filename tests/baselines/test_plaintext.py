"""Unit tests for the plaintext reference matcher."""

import numpy as np

from repro.baselines import find_all_matches, matches_at
from repro.utils.bits import random_bits


class TestFindAllMatches:
    def test_basic(self):
        db = np.array([0, 1, 0, 1, 1, 0, 1, 1], dtype=np.uint8)
        q = np.array([1, 1], dtype=np.uint8)
        assert find_all_matches(db, q) == [3, 6]

    def test_overlapping_matches(self):
        db = np.ones(6, dtype=np.uint8)
        q = np.ones(3, dtype=np.uint8)
        assert find_all_matches(db, q) == [0, 1, 2, 3]

    def test_no_match(self):
        db = np.zeros(10, dtype=np.uint8)
        q = np.ones(3, dtype=np.uint8)
        assert find_all_matches(db, q) == []

    def test_query_equals_db(self, rng):
        db = random_bits(50, rng)
        assert find_all_matches(db, db) == [0]

    def test_query_longer_than_db(self, rng):
        assert find_all_matches(random_bits(5, rng), random_bits(10, rng)) == []

    def test_empty_query(self, rng):
        assert find_all_matches(random_bits(5, rng), np.zeros(0, dtype=np.uint8)) == []

    def test_random_consistency_with_naive(self, rng):
        db = random_bits(200, rng)
        q = random_bits(7, rng)
        naive = [
            k
            for k in range(len(db) - 7 + 1)
            if np.array_equal(db[k : k + 7], q)
        ]
        assert find_all_matches(db, q) == naive


class TestMatchesAt:
    def test_hit(self, rng):
        db = random_bits(100, rng)
        assert matches_at(db, db[20:30], 20)

    def test_miss(self):
        db = np.zeros(20, dtype=np.uint8)
        assert not matches_at(db, np.ones(5, dtype=np.uint8), 3)

    def test_out_of_bounds(self, rng):
        db = random_bits(20, rng)
        assert not matches_at(db, db[15:20], 16)
        assert not matches_at(db, db[:5], -1)
