"""Session lifecycle, sync/async execution, and future ordering."""

import numpy as np
import pytest

import repro
from repro.api import (
    BatchSearchResult,
    ExactSearch,
    SearchResult,
    Session,
    PlaintextEngine,
    WildcardSearch,
)
from repro.baselines import find_all_matches
from repro.he import BFVParams
from repro.utils.bits import random_bits

PARAMS = BFVParams.test_small(64)


@pytest.fixture(scope="module")
def served():
    """One sharded session + its database, shared by the module."""
    rng = np.random.default_rng(31)
    db = random_bits(2048, rng)
    queries = []
    for k in range(4):
        q = random_bits(32, rng)
        off = 16 * (2 + 27 * k)
        db[off : off + 32] = q
        queries.append(q)
    session = repro.open_session(
        "bfv-sharded", params=PARAMS, num_shards=2, key_seed=41, db_bits=db
    )
    yield session, db, queries
    session.close()


class TestSyncSearch:
    def test_search_accepts_raw_bits_and_requests(self, served):
        session, db, queries = served
        for q in queries:
            direct = session.search(q)
            typed = session.search(ExactSearch.from_bits(q))
            assert direct.matches == typed.matches
            assert list(direct.matches) == find_all_matches(db, q)

    def test_search_accepts_text_needle(self):
        text = "alpha beta gamma beta "
        db = np.array(
            [int(b) for b in "".join(f"{ord(c):08b}" for c in text)],
            dtype=np.uint8,
        )
        with repro.open_session(
            "bfv-sharded", params=PARAMS, key_seed=42, db_bits=db
        ) as s:
            result = s.search("beta")
        assert list(result.matches) == [8 * text.index("beta"), 8 * text.rindex("beta")]

    def test_search_before_outsource_raises(self):
        with repro.open_session("bfv-sharded", params=PARAMS, key_seed=43) as s:
            with pytest.raises(RuntimeError, match="outsource"):
                s.search(np.ones(32, dtype=np.uint8))

    def test_batch_verify_policy_applies_on_every_engine(self, served):
        """A batch-level verify=False reaches every sub-query on both
        the generic (sequential) and native batch paths."""
        session, db, queries = served
        native = session.search_batch(queries[:2], verify=False)
        assert [r.verified for r in native.results] == [False, False]
        with repro.open_session(
            "bfv-wire", params=PARAMS, key_seed=47, db_bits=db
        ) as plain:
            generic = plain.search_batch(queries[:2], verify=False)
        assert [r.verified for r in generic.results] == [False, False]

    def test_search_batch_native(self, served):
        session, db, queries = served
        batch = session.search_batch(queries + queries[:2])
        assert isinstance(batch, BatchSearchResult)
        assert batch.num_queries == 6
        assert batch.deduplicated_hits == 2
        for q, matches in zip(queries + queries[:2], batch.matches_per_query()):
            assert matches == find_all_matches(db, q)


class TestAsyncSubmission:
    def test_future_ordering_under_batch_submit(self, served):
        """The i-th future always resolves to the i-th request's result,
        whatever coalescing/deduplication happened inside."""
        session, db, queries = served
        submitted = list(queries) + [queries[1], queries[0]]
        futures = session.submit_batch(submitted)
        results = [f.result(timeout=120) for f in futures]
        assert all(isinstance(r, SearchResult) for r in results)
        expected = [find_all_matches(db, q) for q in submitted]
        assert [list(r.matches) for r in results] == expected

    def test_mixed_request_types_preserve_pairing(self, served):
        session, db, queries = served
        f_exact = session.submit(queries[0])
        f_again = session.submit(ExactSearch.from_bits(queries[2]))
        assert list(f_exact.result(timeout=120).matches) == find_all_matches(
            db, queries[0]
        )
        assert list(f_again.result(timeout=120).matches) == find_all_matches(
            db, queries[2]
        )

    def test_drain_waits_for_everything(self, served):
        session, db, queries = served
        futures = session.submit_batch(queries)
        session.drain()
        assert all(f.done() for f in futures)

    def test_failed_request_resolves_future_with_exception(self):
        engine = PlaintextEngine()
        db = np.array([1, 0, 1, 1], dtype=np.uint8)
        with repro.open_session(engine, db_bits=db) as s:
            # empty-query ValueError surfaces through the future at
            # request build time, before queueing
            with pytest.raises(ValueError):
                s.submit(np.array([], dtype=np.uint8))


class TestLifecycle:
    def test_context_manager_closes(self):
        db = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
        with repro.open_session("plaintext", db_bits=db) as s:
            assert list(s.search(np.array([1, 1], dtype=np.uint8)).matches) == [2]
        with pytest.raises(RuntimeError, match="closed"):
            s.search(np.array([1], dtype=np.uint8))
        with pytest.raises(RuntimeError, match="closed"):
            s.submit(np.array([1], dtype=np.uint8))

    def test_close_is_idempotent(self):
        s = repro.open_session("plaintext")
        s.close()
        s.close()

    def test_close_drains_pending_futures(self):
        db = np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=np.uint8)
        s = repro.open_session("plaintext", db_bits=db)
        futures = s.submit_batch([np.array([1, 1], dtype=np.uint8)] * 8)
        s.close()
        assert all(f.done() for f in futures)
        assert [list(f.result().matches) for f in futures] == [[2, 5]] * 8

    def test_open_session_rejects_kwargs_with_engine_instance(self):
        with pytest.raises(TypeError, match="registry key"):
            repro.open_session(PlaintextEngine(), num_shards=2)

    def test_session_exposes_capabilities(self, served):
        session, _, _ = served
        assert session.engine_key == "bfv-sharded"
        assert session.capabilities.sharded
        assert session.db_bit_length == 2048


class TestWildcardThroughSession:
    def test_wildcard_request(self):
        text = "user alice logged in; user bob logged out; "
        db = np.array(
            [int(b) for b in "".join(f"{ord(c):08b}" for c in text)],
            dtype=np.uint8,
        )
        import re

        with repro.open_session(
            "bfv-sharded", params=PARAMS, key_seed=44, db_bits=db
        ) as s:
            result = s.search(WildcardSearch.from_text("logged ??"))
        expected = [8 * m.start() for m in re.finditer(r"logged ..", text)]
        assert list(result.matches) == expected
