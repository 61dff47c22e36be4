"""Integration tests of the full CIPHERMATCH search (Algorithm 1 +
Figure 6), through the serving engine at one shard, against the
plaintext oracle."""

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import ClientConfig, IndexMode
from repro.he import BFVParams
from repro.he.keys import SecretKey
from repro.serve import ShardedSearchEngine
from repro.utils.bits import random_bits

PARAMS = BFVParams.test_small(64)


def make_engine(seed=1, mode=IndexMode.CLIENT_DECRYPT):
    return ShardedSearchEngine(
        ClientConfig(PARAMS, key_seed=seed, index_mode=mode)
    )


class TestAlignedMatching:
    def test_single_aligned_match(self, rng):
        db = random_bits(2000, rng)
        q = random_bits(32, rng)
        db[480:512] = q
        engine = make_engine()
        engine.outsource(db)
        report = engine.search(q)
        assert report.matches == find_all_matches(db, q)

    def test_match_at_database_start(self, rng):
        db = random_bits(1500, rng)
        q = random_bits(32, rng)
        db[0:32] = q
        engine = make_engine(2)
        engine.outsource(db)
        assert 0 in engine.search(q).matches

    def test_match_at_database_end(self, rng):
        db = random_bits(1024, rng)
        q = random_bits(32, rng)
        db[-32:] = q
        engine = make_engine(3)
        engine.outsource(db)
        assert (len(db) - 32) in engine.search(q).matches

    def test_multiple_matches(self, rng):
        db = random_bits(3000, rng)
        q = random_bits(48, rng)
        for off in (160, 960, 2400):
            db[off : off + 48] = q
        engine = make_engine(4)
        engine.outsource(db)
        assert engine.search(q).matches == find_all_matches(db, q)

    def test_no_match(self, rng):
        db = np.zeros(1000, dtype=np.uint8)
        q = np.ones(32, dtype=np.uint8)
        engine = make_engine(5)
        engine.outsource(db)
        assert engine.search(q).matches == []

    def test_all_zero_database_all_zero_query(self, rng):
        # pathological: every aligned offset matches
        db = np.zeros(320, dtype=np.uint8)
        q = np.zeros(32, dtype=np.uint8)
        engine = make_engine(6)
        engine.outsource(db)
        assert engine.search(q).matches == find_all_matches(db, q)


class TestUnalignedMatching:
    @pytest.mark.parametrize("phase", [1, 5, 9, 15])
    def test_phases(self, phase, rng):
        db = random_bits(2000, rng)
        q = random_bits(40, rng)  # >= 31 bits: every phase guaranteed
        off = 32 * 16 + phase
        db[off : off + 40] = q
        engine = make_engine(7 + phase)
        engine.outsource(db)
        assert engine.search(q).matches == find_all_matches(db, q)

    def test_cross_polynomial_match(self, rng):
        # a match spanning the boundary between two database polynomials
        per_poly = 64 * 16
        db = random_bits(2 * per_poly, rng)
        q = random_bits(64, rng)
        off = per_poly - 32  # half in poly 0, half in poly 1
        db[off : off + 64] = q
        engine = make_engine(30)
        engine.outsource(db)
        assert off in engine.search(q).matches


class TestQuerySizes:
    @pytest.mark.parametrize("qbits", [16, 32, 64, 128, 256])
    def test_paper_query_sizes(self, qbits, rng):
        db = random_bits(4000, rng)
        q = random_bits(qbits, rng)
        off = 16 * 50
        db[off : off + qbits] = q
        engine = make_engine(40 + qbits)
        engine.outsource(db)
        report = engine.search(q)
        assert off in report.matches
        assert set(report.matches) == set(find_all_matches(db, q))

    def test_query_not_multiple_of_chunk(self, rng):
        db = random_bits(2000, rng)
        q = random_bits(23, rng)
        off = 16 * 20
        db[off : off + 23] = q
        engine = make_engine(60)
        engine.outsource(db)
        assert off in engine.search(q).matches


class TestDeterministicIndexMode:
    def test_matches_client_mode(self, rng):
        db = random_bits(2000, rng)
        q = random_bits(32, rng)
        db[320:352] = q
        db[777:809] = q
        expected = find_all_matches(db, q)
        for mode in (IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC):
            engine = make_engine(70, mode)
            engine.outsource(db)
            assert engine.search(q).matches == expected, mode

    def test_server_generates_index_without_secret_key(self, rng):
        db = random_bits(1000, rng)
        q = random_bits(32, rng)
        db[160:192] = q
        engine = make_engine(71, IndexMode.SERVER_DETERMINISTIC)
        engine.outsource(db)
        # the comparator that generates the index holds no secret key
        held = vars(engine._comparator).values()
        assert not any(isinstance(value, SecretKey) for value in held)
        assert 160 in engine.search(q).matches

    def test_client_mode_rejects_server_index(self, rng):
        # no masking seed, so no comparator to generate an index
        engine = make_engine(72, IndexMode.CLIENT_DECRYPT)
        engine.outsource(random_bits(500, rng))
        assert engine.client.masking_seed is None
        assert engine._comparator is None


class TestReports:
    def test_hom_add_count(self, rng):
        db = random_bits(1000, rng)  # one polynomial
        engine = make_engine(80)
        engine.outsource(db)
        report = engine.search(random_bits(16, rng))
        assert report.hom_additions == 16  # 16 variants x 1 polynomial
        assert report.num_variants == 16

    def test_encrypted_db_bytes(self, rng):
        engine = make_engine(81)
        engine.outsource(random_bits(100, rng))
        report = engine.search(random_bits(16, rng))
        assert report.encrypted_db_bytes == PARAMS.ciphertext_bytes

    def test_verification_disabled_keeps_candidates(self, rng):
        db = random_bits(1500, rng)
        q = random_bits(16, rng)
        db[160:176] = q
        engine = make_engine(83)
        engine.outsource(db)
        unverified = engine.search(q, verify=False)
        verified = engine.search(q)
        assert set(verified.matches).issubset(set(unverified.matches))
        assert 160 in verified.matches
