"""Integration tests of the full CIPHERMATCH pipeline (Algorithm 1 +
Figure 6) against the plaintext oracle."""

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import (
    ClientConfig,
    IndexMode,
    QueryPreparer,
    SecureStringMatchPipeline,
)
from repro.he import BFVParams
from repro.utils.bits import random_bits
from tests.oracles import count_transforms

PARAMS = BFVParams.test_small(64)


def make_pipeline(seed=1, mode=IndexMode.CLIENT_DECRYPT):
    return SecureStringMatchPipeline(
        ClientConfig(PARAMS, key_seed=seed, index_mode=mode)
    )


class TestAlignedMatching:
    def test_single_aligned_match(self, rng):
        db = random_bits(2000, rng)
        q = random_bits(32, rng)
        db[480:512] = q
        pipe = make_pipeline()
        pipe.outsource_database(db)
        report = pipe.search(q)
        assert report.matches == find_all_matches(db, q)

    def test_match_at_database_start(self, rng):
        db = random_bits(1500, rng)
        q = random_bits(32, rng)
        db[0:32] = q
        pipe = make_pipeline(2)
        pipe.outsource_database(db)
        assert 0 in pipe.search(q).matches

    def test_match_at_database_end(self, rng):
        db = random_bits(1024, rng)
        q = random_bits(32, rng)
        db[-32:] = q
        pipe = make_pipeline(3)
        pipe.outsource_database(db)
        assert (len(db) - 32) in pipe.search(q).matches

    def test_multiple_matches(self, rng):
        db = random_bits(3000, rng)
        q = random_bits(48, rng)
        for off in (160, 960, 2400):
            db[off : off + 48] = q
        pipe = make_pipeline(4)
        pipe.outsource_database(db)
        assert pipe.search(q).matches == find_all_matches(db, q)

    def test_no_match(self, rng):
        db = np.zeros(1000, dtype=np.uint8)
        q = np.ones(32, dtype=np.uint8)
        pipe = make_pipeline(5)
        pipe.outsource_database(db)
        assert pipe.search(q).matches == []

    def test_all_zero_database_all_zero_query(self, rng):
        # pathological: every aligned offset matches
        db = np.zeros(320, dtype=np.uint8)
        q = np.zeros(32, dtype=np.uint8)
        pipe = make_pipeline(6)
        pipe.outsource_database(db)
        assert pipe.search(q).matches == find_all_matches(db, q)


class TestUnalignedMatching:
    @pytest.mark.parametrize("phase", [1, 5, 9, 15])
    def test_phases(self, phase, rng):
        db = random_bits(2000, rng)
        q = random_bits(40, rng)  # >= 31 bits: every phase guaranteed
        off = 32 * 16 + phase
        db[off : off + 40] = q
        pipe = make_pipeline(7 + phase)
        pipe.outsource_database(db)
        assert pipe.search(q).matches == find_all_matches(db, q)

    def test_cross_polynomial_match(self, rng):
        # a match spanning the boundary between two database polynomials
        per_poly = 64 * 16
        db = random_bits(2 * per_poly, rng)
        q = random_bits(64, rng)
        off = per_poly - 32  # half in poly 0, half in poly 1
        db[off : off + 64] = q
        pipe = make_pipeline(30)
        pipe.outsource_database(db)
        assert off in pipe.search(q).matches


class TestQuerySizes:
    @pytest.mark.parametrize("qbits", [16, 32, 64, 128, 256])
    def test_paper_query_sizes(self, qbits, rng):
        db = random_bits(4000, rng)
        q = random_bits(qbits, rng)
        off = 16 * 50
        db[off : off + qbits] = q
        pipe = make_pipeline(40 + qbits)
        pipe.outsource_database(db)
        report = pipe.search(q)
        assert off in report.matches
        assert set(report.matches) == set(find_all_matches(db, q))

    def test_query_not_multiple_of_chunk(self, rng):
        db = random_bits(2000, rng)
        q = random_bits(23, rng)
        off = 16 * 20
        db[off : off + 23] = q
        pipe = make_pipeline(60)
        pipe.outsource_database(db)
        assert off in pipe.search(q).matches


class TestDeterministicIndexMode:
    def test_matches_client_mode(self, rng):
        db = random_bits(2000, rng)
        q = random_bits(32, rng)
        db[320:352] = q
        db[777:809] = q
        expected = find_all_matches(db, q)
        for mode in (IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC):
            pipe = make_pipeline(70, mode)
            pipe.outsource_database(db)
            assert pipe.search(q).matches == expected, mode

    def test_server_generates_index_without_secret_key(self, rng):
        db = random_bits(1000, rng)
        q = random_bits(32, rng)
        db[160:192] = q
        pipe = make_pipeline(71, IndexMode.SERVER_DETERMINISTIC)
        pipe.outsource_database(db)
        # server has no sk attribute at all — index generation must work
        assert not hasattr(pipe.server, "sk")
        assert 160 in pipe.search(q).matches

    def test_client_mode_rejects_server_index(self, rng):
        pipe = make_pipeline(72, IndexMode.CLIENT_DECRYPT)
        pipe.outsource_database(random_bits(500, rng))
        with pytest.raises(RuntimeError):
            pipe.server.generate_index([], 0)


class TestFusedCell:
    """What a fused ``CLIENT_DECRYPT`` search costs on the query side —
    the serving engine's miss path (tests/serve/test_fused_serve.py),
    without its cache."""

    def _planted(self, rng):
        db = random_bits(3 * PARAMS.n * 16, rng)
        queries = [random_bits(48, rng) for _ in range(2)]
        db[160:208] = queries[0]
        db[1203:1251] = queries[1]
        return db, queries

    def test_one_encryption_pass_and_no_query_side_product(self, rng, monkeypatch):
        db, (warm, query) = self._planted(rng)
        pipe = make_pipeline(90)
        pipe.outsource_database(db)
        assert pipe.server.fused
        pipe.search(warm)  # builds the database's phase rows
        passes = []
        encrypt = QueryPreparer.encrypt_variant_value

        def spy(self, prepared, rows, *args, **kwargs):
            block = encrypt(self, prepared, rows, *args, **kwargs)
            passes.append((len(rows), block.shape))
            return block

        monkeypatch.setattr(QueryPreparer, "encrypt_variant_value", spy)
        with count_transforms() as whole:
            report = pipe.search(query)
        assert report.matches == find_all_matches(db, query) == [1203]
        rows = pipe.client.prepare_query(query).num_variants
        assert passes == [(rows, (rows, 3, PARAMS.n))] and rows == 33
        # every transform of the search is the encryption pass's own:
        # the phase rows it returned are read, never recomputed as c1 * s
        twin = make_pipeline(90).client
        twin.query_arena(twin.prepare_query(warm))  # the key's spectrum
        with count_transforms() as alone:
            twin.query_arena(twin.prepare_query(query))
        assert whole == alone != []

    def test_rng_draws_do_not_depend_on_query_content(self, rng):
        db, queries = self._planted(rng)
        states = []
        for query in queries:
            pipe = make_pipeline(91)
            pipe.outsource_database(db)
            assert pipe.search(query).matches == find_all_matches(db, query)
            states.append(pipe.client.ctx._rng.bit_generator.state)
        assert states[0] == states[1]


class TestReports:
    def test_hom_add_count(self, rng):
        db = random_bits(1000, rng)  # one polynomial
        pipe = make_pipeline(80)
        pipe.outsource_database(db)
        report = pipe.search(random_bits(16, rng))
        assert report.hom_additions == 16  # 16 variants x 1 polynomial
        assert report.num_variants == 16

    def test_encrypted_db_bytes(self, rng):
        pipe = make_pipeline(81)
        pipe.outsource_database(random_bits(100, rng))
        report = pipe.search(random_bits(16, rng))
        assert report.encrypted_db_bytes == PARAMS.ciphertext_bytes

    def test_search_before_outsource_raises(self, rng):
        pipe = make_pipeline(82)
        with pytest.raises(RuntimeError):
            pipe.search(random_bits(16, rng))

    def test_verification_disabled_keeps_candidates(self, rng):
        db = random_bits(1500, rng)
        q = random_bits(16, rng)
        db[160:176] = q
        pipe = make_pipeline(83)
        pipe.outsource_database(db)
        unverified = pipe.search(q, verify=False)
        verified = pipe.search(q)
        assert set(verified.matches).issubset(set(unverified.matches))
        assert 160 in verified.matches
