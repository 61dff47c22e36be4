"""Tests for the wire-level client-server protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import find_all_matches
from repro.core.client import CipherMatchClient, ClientConfig
from repro.core.match_polynomial import IndexMode
from repro.core.protocol import (
    WireProtocolSession,
    decode_database,
    decode_query_variants,
    decode_result_blocks,
    encode_database,
    encode_query_variants,
    encode_result_blocks,
)
from repro.he import BFVParams
from repro.utils.bits import random_bits


@pytest.fixture(scope="module")
def config():
    return ClientConfig(BFVParams.test_small(64))


@pytest.fixture(scope="module")
def session(config):
    s = WireProtocolSession(config)
    rng = np.random.default_rng(3)
    db = random_bits(640, rng)
    db[160:192] = random_bits(32, np.random.default_rng(4))
    s.outsource(db)
    s._db_bits = db  # stashed for oracle checks in tests
    return s


class TestDatabaseTransfer:
    def test_round_trip(self, config):
        client = CipherMatchClient(config)
        db = client.outsource(random_bits(320, np.random.default_rng(1)))
        wire = encode_database(db)
        restored = decode_database(wire, client.ctx)
        assert restored.bit_length == db.bit_length
        assert restored.chunk_width == db.chunk_width
        assert restored.n == db.n
        assert restored.num_polynomials == db.num_polynomials
        for orig, rest in zip(db.ciphertexts, restored.ciphertexts):
            assert orig == rest

    def test_deterministic_seed_survives(self):
        cfg = ClientConfig(
            BFVParams.test_small(64),
            index_mode=IndexMode.SERVER_DETERMINISTIC,
        )
        client = CipherMatchClient(cfg)
        db = client.outsource(random_bits(160, np.random.default_rng(2)))
        restored = decode_database(encode_database(db), client.ctx)
        assert restored.deterministic_seed == db.deterministic_seed

    def test_none_seed_survives(self, config):
        client = CipherMatchClient(config)
        db = client.outsource(random_bits(160, np.random.default_rng(2)))
        assert db.deterministic_seed is None
        restored = decode_database(encode_database(db), client.ctx)
        assert restored.deterministic_seed is None

    def test_trailing_garbage_rejected(self, config):
        client = CipherMatchClient(config)
        db = client.outsource(random_bits(160, np.random.default_rng(2)))
        wire = encode_database(db) + b"xx"
        with pytest.raises(ValueError, match="trailing"):
            decode_database(wire, client.ctx)


class TestQueryResultTransfer:
    def test_variant_round_trip(self, config):
        client = CipherMatchClient(config)
        client.outsource(random_bits(320, np.random.default_rng(5)))
        prepared = client.prepare_query(random_bits(16, np.random.default_rng(6)))
        wire = encode_query_variants(client, prepared, num_polynomials=1)
        variants = decode_query_variants(wire, client.ctx)
        assert len(variants) == prepared.num_variants
        assert all((v, 0) in variants for v in range(prepared.num_variants))

    def test_result_blocks_round_trip(self, config, session):
        from repro.core.matcher import ResultBlock

        client = session.client
        prepared = client.prepare_query(np.ones(16, dtype=np.uint8))
        ct = client.encrypt_variant(prepared, 0, 0)
        blocks = [ResultBlock(0, 0, 17, ct)]
        restored = decode_result_blocks(encode_result_blocks(blocks), client.ctx)
        assert restored[0].poly_index == 0
        assert restored[0].variant_index == 0
        assert restored[0].query_row == 17
        assert restored[0].ciphertext == ct


class TestEndToEnd:
    def test_search_over_wire_matches_oracle(self, session):
        db_bits = session._db_bits
        query = db_bits[160:176].copy()
        matches = session.search(query)
        assert matches == find_all_matches(db_bits, query)

    def test_transcript_stats_populated(self, session):
        session.search(session._db_bits[160:176].copy())
        assert session.stats.database_upload > 0
        assert session.stats.query_upload > 0
        assert session.stats.result_download > 0
        assert session.stats.online_bytes == (
            session.stats.query_upload + session.stats.result_download
        )

    def test_server_has_no_key_material(self, session):
        assert not hasattr(session.server, "sk")
        assert session.server.ctx is not session.client.ctx

    def test_two_rounds_only(self, session):
        """The online protocol is one upload + one download."""
        before = session.stats.database_upload
        session.search(session._db_bits[160:176].copy())
        assert session.stats.database_upload == before  # round 1 not repeated

    @given(st.integers(min_value=0, max_value=600))
    @settings(max_examples=5, deadline=None)
    def test_random_query_positions(self, offset):
        # 32-bit queries are exactly detected at every bit phase (each
        # occurrence covers at least one full 16-bit chunk).
        session = WireProtocolSession(ClientConfig(BFVParams.test_small(64)))
        rng = np.random.default_rng(offset)
        db = random_bits(640, rng)
        session.outsource(db)
        offset = min(offset, 640 - 32)
        query = db[offset : offset + 32].copy()
        assert session.search(query) == find_all_matches(db, query)
