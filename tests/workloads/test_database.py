"""Unit tests for the encrypted-database-search workload."""

import numpy as np
import pytest

from repro.workloads import DatabaseWorkloadGenerator


@pytest.fixture(scope="module")
def db():
    return DatabaseWorkloadGenerator(seed=9).generate(
        num_records=20, key_bytes=8, value_bytes=16
    )


class TestKeyValueDatabase:
    def test_unique_keys(self, db):
        keys = [r.key for r in db.records]
        assert len(set(keys)) == len(keys)

    def test_record_layout(self, db):
        bits = db.flatten_bits()
        assert len(bits) == 20 * db.record_bits
        assert db.record_bits == (8 + 16) * 8

    def test_key_at_expected_offset(self, db):
        bits = db.flatten_bits()
        for i in (0, 7, 19):
            off = i * db.record_bits
            key_bits = db.key_bits(db.records[i].key)
            assert np.array_equal(bits[off : off + len(key_bits)], key_bits)

    def test_key_offsets_chunk_aligned(self, db):
        # 24-byte records: every key offset is a multiple of 16 bits
        for i in range(len(db.records)):
            assert i * db.record_bits % 16 == 0

    def test_lookup(self, db):
        rec = db.records[3]
        assert db.lookup(rec.key) is rec
        assert db.lookup("nonexistent!") is None

    def test_key_bits_fixed_width(self, db):
        assert len(db.key_bits("a")) == 8 * 8
        assert len(db.key_bits("exactly8")) == 8 * 8


class TestQueryMix:
    def test_hit_fraction(self, db):
        gen = DatabaseWorkloadGenerator(seed=10)
        mix = gen.query_mix(db, num_queries=200, hit_fraction=0.5)
        assert len(mix.keys) == 200
        assert 60 < mix.num_hits < 140

    def test_ground_truth_consistency(self, db):
        gen = DatabaseWorkloadGenerator(seed=11)
        mix = gen.query_mix(db, num_queries=50)
        for key, expected in zip(mix.keys, mix.expected_record_indices):
            if expected is None:
                assert db.lookup(key) is None
            else:
                assert db.records[expected].key == key

    def test_all_misses(self, db):
        gen = DatabaseWorkloadGenerator(seed=12)
        mix = gen.query_mix(db, num_queries=20, hit_fraction=0.0)
        assert mix.num_hits == 0

    def test_all_hits(self, db):
        gen = DatabaseWorkloadGenerator(seed=13)
        mix = gen.query_mix(db, num_queries=20, hit_fraction=1.0)
        assert mix.num_hits == 20
