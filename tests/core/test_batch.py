"""Batched query execution through the ``repro.api`` facade: per-query
matches, Hom-Add accounting, in-batch deduplication and re-outsourcing."""

import numpy as np
import pytest

import repro
from repro.baselines import find_all_matches
from repro.he import BFVParams
from repro.utils.bits import random_bits

PARAMS = BFVParams.test_small(64)


@pytest.fixture()
def session():
    with repro.open_session(
        "bfv-sharded", params=PARAMS, num_shards=1, key_seed=90
    ) as session:
        yield session


class TestBatchSearch:
    def test_batch_matches_individual_searches(self, session, rng):
        db = random_bits(2000, rng)
        queries = []
        for k in range(4):
            q = random_bits(32, rng)
            off = 16 * (5 + 20 * k)
            db[off : off + 32] = q
            queries.append(q)
        session.outsource(db)
        result = session.search_batch(queries)
        assert result.num_queries == 4
        for q, matches in zip(queries, result.matches_per_query()):
            assert matches == find_all_matches(db, q)
            assert matches == list(session.search(q).matches)

    def test_aggregate_counts(self, session, rng):
        db = random_bits(1000, rng)  # one polynomial
        session.outsource(db)
        queries = [random_bits(16, rng) for _ in range(3)]
        result = session.search_batch(queries)
        per_query = [r.hom_ops.additions for r in result.results]
        assert result.total_hom_ops == sum(per_query)
        # 16 variants x 1 polynomial per distinct query
        assert per_query == [16, 16, 16]

    def test_duplicate_queries_deduplicated(self, session, rng):
        db = random_bits(1000, rng)
        q = random_bits(16, rng)
        session.outsource(db)
        result = session.search_batch([q, q, q])
        assert result.num_queries == 3
        assert result.deduplicated_hits == 2
        # only one actual search ran
        serve = session.engine.last_serve_report
        assert serve.reports[0] is serve.reports[1] is serve.reports[2]
        assert sum(s.tasks_executed for s in serve.shards) == 1

    def test_queries_with_matches(self, session, rng):
        db = random_bits(1500, rng)
        hit = random_bits(32, rng)
        db[160:192] = hit
        miss = (1 - db[:32]).astype(np.uint8)  # guaranteed different at 0
        session.outsource(db)
        result = session.search_batch([hit, miss])
        assert result.total_matches >= 1
        assert result.results[0].num_matches >= 1

    def test_outsource_clears_memo(self, session, rng):
        db1 = random_bits(500, rng)
        q = random_bits(16, rng)
        session.outsource(db1)
        session.search_batch([q])
        db2 = random_bits(500, rng)
        session.outsource(db2)
        result = session.search_batch([q])
        # re-searched against the new database, not served from memo
        assert result.deduplicated_hits == 0
        assert result.matches_per_query()[0] == find_all_matches(db2, q)

    def test_case_study_key_stream(self, rng):
        """Database case study batch: repeated key lookups dedupe."""
        from repro.workloads import DatabaseWorkloadGenerator

        gen = DatabaseWorkloadGenerator(seed=42)
        db = gen.generate(num_records=10, key_bytes=8, value_bytes=8)
        mix = gen.query_mix(db, num_queries=15, hit_fraction=0.8)
        with repro.open_session(
            "bfv-sharded",
            params=PARAMS,
            num_shards=1,
            key_seed=91,
            db_bits=db.flatten_bits(),
        ) as session:
            result = session.search_batch([db.key_bits(k) for k in mix.keys])
        assert result.num_queries == 15
        distinct = len(set(mix.keys))
        assert result.deduplicated_hits == 15 - distinct
