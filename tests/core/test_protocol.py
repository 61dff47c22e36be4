"""Tests for the wire-level client-server protocol."""

import gc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import find_all_matches
from repro.core.client import CipherMatchClient, ClientConfig
from repro.core.match_polynomial import IndexMode
from repro.core.matcher import ResultBlock
from repro.core.protocol import (
    WireProtocolSession,
    WireServer,
    decode_database,
    decode_query_rows,
    decode_result_blocks,
    encode_database,
    encode_query_rows,
    encode_result_blocks,
)
from repro.core.query import PreparedQuery
from repro.he import BFVParams
from repro.he.keys import SecretKey
from repro.utils.bits import random_bits
from tests.oracles import encrypted_query_rows


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
        _, query_cts, row_map = encrypted_query_rows(client, prepared, range(1))
        restored_cts, restored_map = decode_query_rows(
            encode_query_rows(query_cts, row_map), client.ctx
        )
        assert restored_cts == query_cts and len(query_cts) == 16
        assert np.array_equal(restored_map, row_map)

    def test_result_blocks_round_trip(self, config, session):
        client = session.client
        prepared = client.prepare_query(np.ones(16, dtype=np.uint8))
        _, (ct, *_), _ = encrypted_query_rows(client, prepared, range(1))
        blocks = [ResultBlock(0, 0, 17, ct)]
        restored = decode_result_blocks(encode_result_blocks(blocks), client.ctx)
        assert restored[0].poly_index == 0
        assert restored[0].variant_index == 0
        assert restored[0].query_row == 17
        assert restored[0].ciphertext == ct


class TestMalformedMessages:
    """Decoders raise ValueError naming the fault, never struct.error."""

    @pytest.fixture(scope="class")
    def messages(self, config):
        """A valid database upload, query upload and result download."""
        client = CipherMatchClient(config)
        db = client.outsource(random_bits(2 * 64 * 16, np.random.default_rng(9)))
        prepared = client.prepare_query(random_bits(16, np.random.default_rng(10)))
        _, query_cts, row_map = encrypted_query_rows(client, prepared, range(2))
        blocks = [ResultBlock(j, 0, 0, query_cts[0]) for j in range(2)]
        return client.ctx, {
            "database": (encode_database(db), decode_database),
            "upload": (encode_query_rows(query_cts, row_map), decode_query_rows),
            "download": (encode_result_blocks(blocks), decode_result_blocks),
        }

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_truncation_is_a_value_error(self, messages, data):
        ctx, wires = messages
        kind = data.draw(st.sampled_from(sorted(wires)))
        wire, decode = wires[kind]
        cut = data.draw(st.integers(0, len(wire) - 1))
        with pytest.raises(ValueError):
            decode(wire[:cut], ctx)

    @pytest.mark.parametrize("kind", ["database", "upload", "download"])
    def test_short_header_and_huge_count(self, messages, kind):
        ctx, wires = messages
        decode = wires[kind][1]
        with pytest.raises(ValueError, match="truncated"):
            decode(b"\x01", ctx)
        with pytest.raises(ValueError, match="count"):  # 2**32 - 1 items
            decode(b"\xff" * 16, ctx)

    def test_truncated_last_frame_is_named(self, messages):
        ctx, wires = messages
        wire, decode = wires["database"]
        with pytest.raises(ValueError, match="truncated frame 1 of 2"):
            decode(wire[:-1], ctx)
        with pytest.raises(ValueError, match="trailing"):
            decode(wire + b"x", ctx)

    def test_row_map_names_only_uploaded_rows(self, messages):
        ctx, wires = messages
        wire = bytearray(wires["upload"][0])
        wire[8:12] = (10**6).to_bytes(4, "little")  # first row-map entry
        with pytest.raises(ValueError, match="row map names row 1000000"):
            decode_query_rows(bytes(wire), ctx)


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

    def test_server_has_no_key_material(self, session, monkeypatch):
        """The server half is handed bytes, and nothing reachable from
        it or from them is the client, its secret key or its prepared
        query."""
        args, _ = _serve(session, session._db_bits[160:192].copy(), monkeypatch)
        assert [type(arg) for arg in args] == [bytes]
        assert session.server.ctx is not session.client.ctx
        forbidden = (PreparedQuery, SecretKey, CipherMatchClient)
        roots = (session.server, *args)
        assert not [
            o for root in roots for o in _reachable(root) if isinstance(o, forbidden)
        ]

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


def _reachable(root):
    """What ``root`` references, transitively: closures, not globals."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
        else:
            stack.extend(gc.get_referents(obj))


def _serve(session, query, monkeypatch):
    """Search ``query`` over the wire: what the server half was handed,
    and the operations its context counted."""
    handed, search = [], WireServer.search
    monkeypatch.setattr(
        WireServer, "search",
        lambda server, *args: handed.append(args) or search(server, *args),
    )
    counter = session.server.ctx.counter
    before = vars(counter).copy()
    session.search(query)
    (args,) = handed
    return args, {k: v - before[k] for k, v in vars(counter).items()}


def test_server_half_depends_only_on_query_length(monkeypatch):
    """Two queries of one length: byte-identical row maps, equal upload
    sizes and equal server operation counts."""
    session = WireProtocolSession(ClientConfig(BFVParams.test_small(64)))
    rng = np.random.default_rng(12)
    db = random_bits(3 * 64 * 16, rng)
    session.outsource(db)
    seen = []
    for query in (db[160:200].copy(), random_bits(40, rng)):
        (upload,), ops = _serve(session, query, monkeypatch)
        rows, row_map = decode_query_rows(upload, session.server.ctx)
        seen.append((row_map.tobytes(), len(upload), ops))
    assert seen[0] == seen[1]
    # 40 bits: 25 variants, one uploaded row each, each added to the
    # 3 polynomials — not one ciphertext per pair
    assert len(rows) == 25 and row_map.shape == (25, 3)
    assert seen[0][2]["additions"] == 25 * 3
