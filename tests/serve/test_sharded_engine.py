"""Sharded concurrent serving: equivalence with the sequential pipeline,
cross-shard offset correctness, cache bounding, and scheduler scaling."""

import threading

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import (
    ClientConfig,
    IndexMode,
    SecureStringMatchPipeline,
)
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.utils.bits import random_bits
from tests.oracles import per_pair_factory

PARAMS = BFVParams.test_small(64)
BITS_PER_POLY = 64 * 16  # n coefficients x 16-bit chunks


def make_workload(rng, num_polys=8, num_queries=5):
    """Database + queries with planted hits, including one that straddles
    every internal boundary of a 4-shard split."""
    db = random_bits(num_polys * BITS_PER_POLY, rng)
    queries = []
    for k in range(num_queries):
        q = random_bits(32, rng)
        off = 16 * (7 + 31 * k)
        db[off : off + 32] = q
        queries.append(q)
    polys_per_shard = num_polys // 4
    for shard_edge in range(1, 4):
        q = random_bits(32, rng)
        boundary = shard_edge * polys_per_shard * BITS_PER_POLY
        db[boundary - 16 : boundary + 16] = q
        queries.append(q)
    return db, queries


class TestShardedEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 3, 4])
    def test_matches_equal_sequential_pipeline(self, rng, num_shards):
        db, queries = make_workload(rng)
        pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=41))
        pipe.outsource_database(db)
        sequential = [pipe.search(q).matches for q in queries]

        engine = ShardedSearchEngine(
            ClientConfig(PARAMS, key_seed=41), num_shards=num_shards
        )
        engine.outsource(db)
        report = engine.search_batch(queries)

        assert report.matches_per_query() == sequential
        for q, matches in zip(queries, report.matches_per_query()):
            assert matches == find_all_matches(db, q)

    def test_cross_shard_boundary_offsets(self, rng):
        """Occurrences straddling shard boundaries are found at the exact
        global offset (merged blocks keep global polynomial indices)."""
        db, _ = make_workload(rng, num_queries=0)
        engine = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=42), num_shards=4)
        engine.outsource(db)
        polys_per_shard = 2
        for shard_edge in range(1, 4):
            boundary = shard_edge * polys_per_shard * BITS_PER_POLY
            q = db[boundary - 16 : boundary + 16].copy()
            matches = engine.search(q).matches
            assert boundary - 16 in matches
            assert matches == find_all_matches(db, q)

    @pytest.mark.parametrize("path", ["fused", "deterministic", "per-pair"])
    def test_straddling_and_degraded_spans_decode_from_hits(self, rng, path):
        """One query planted inside every shard and across both shard
        boundaries.  All five are found at their global offsets; with
        shard 1 lost under partial results, what survives is exactly the
        occurrences whose every set flag lies in a live shard — the two
        straddling runs have one flag in the dead span and cannot
        complete — and the Hom-Add tally covers the live shards only."""
        from repro.faults import FaultInjector, FaultPlan

        shards, polys_per_shard = 3, 2
        edge = polys_per_shard * BITS_PER_POLY
        q = random_bits(32, rng)
        db = np.zeros(shards * edge, dtype=np.uint8)
        inside = [16 * 9, edge + 16 * 70, 2 * edge + 16 * 33]
        straddling = [edge - 16, 2 * edge - 16]
        for off in inside + straddling:
            db[off : off + 32] = q
        config = {}
        if path == "deterministic":
            config["index_mode"] = IndexMode.SERVER_DETERMINISTIC
        engine = ShardedSearchEngine(
            ClientConfig(PARAMS, key_seed=47, **config),
            num_shards=shards,
            degraded_mode="partial",
            backend_factory=per_pair_factory if path == "per-pair" else None,
        )
        engine.outsource(db)
        whole = engine.search(q)
        assert whole.matches == sorted(inside + straddling) == find_all_matches(db, q)
        assert whole.hom_additions == whole.num_variants * shards * polys_per_shard

        engine.fault_injector = FaultInjector(FaultPlan().worker_crash(0, shard=1))
        partial = engine.search(q)
        assert partial.degraded_shards == (1,)
        assert partial.matches == [inside[0], inside[2]]
        assert partial.hom_additions == partial.num_variants * 2 * polys_per_shard
        assert [c.offset for c in partial.candidates] == partial.matches

    def test_hom_add_totals_match_sequential(self, rng):
        """Sharding redistributes but never duplicates Hom-Adds."""
        db, queries = make_workload(rng, num_queries=2)
        engine1 = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=43), num_shards=1)
        engine4 = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=43), num_shards=4)
        engine1.outsource(db)
        engine4.outsource(db)
        r1 = engine1.search_batch(queries)
        r4 = engine4.search_batch(queries)
        assert r1.total_hom_additions == r4.total_hom_additions
        assert [r.hom_additions for r in r1.reports] == [
            r.hom_additions for r in r4.reports
        ]

    def test_deterministic_index_mode(self, rng):
        db, queries = make_workload(rng, num_queries=2)
        config = ClientConfig(
            PARAMS, index_mode=IndexMode.SERVER_DETERMINISTIC, key_seed=44
        )
        engine = ShardedSearchEngine(config, num_shards=4)
        engine.outsource(db)
        report = engine.search_batch(queries)
        for q, matches in zip(queries, report.matches_per_query()):
            assert matches == find_all_matches(db, q)

    def test_shard_count_clamped_to_polynomials(self, rng):
        db = random_bits(BITS_PER_POLY, rng)  # exactly one polynomial
        engine = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=45), num_shards=8)
        engine.outsource(db)
        assert len(engine.shards) == 1
        q = db[:32].copy()
        assert 0 in engine.search(q).matches

    def test_requires_database(self):
        engine = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=46))
        with pytest.raises(RuntimeError):
            engine.search(np.ones(16, dtype=np.uint8))


class TestServeMetrics:
    def test_cache_bound_and_hit_rate(self, rng):
        db, queries = make_workload(rng, num_queries=3)
        engine = ShardedSearchEngine(
            ClientConfig(PARAMS, key_seed=47), num_shards=4, cache_capacity=8
        )
        engine.outsource(db)
        report = engine.search_batch(queries)
        assert report.cache.capacity == 8
        assert report.cache.size <= 8
        assert report.cache.evictions > 0
        assert 0.0 <= report.cache.hit_rate <= 1.0
        # tight cache must not change results
        for q, matches in zip(queries, report.matches_per_query()):
            assert matches == find_all_matches(db, q)

    def test_dedup_shares_report_objects(self, rng):
        db, queries = make_workload(rng, num_queries=2)
        engine = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=48), num_shards=2)
        engine.outsource(db)
        report = engine.search_batch([queries[0], queries[1], queries[0]])
        assert report.deduplicated_hits == 1
        assert report.reports[0] is report.reports[2]
        assert report.num_queries == 3

    def test_report_tables_render(self, rng):
        db, queries = make_workload(rng, num_queries=2)
        engine = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=49), num_shards=2)
        engine.outsource(db)
        report = engine.search_batch(queries)
        summary = report.summary_table()
        shards = report.shard_table()
        assert "throughput" in summary and "cache hit rate" in summary
        assert "modeled util" in shards
        assert report.latency_percentile(50) <= report.latency_percentile(99)
        assert report.wall_seconds > 0

    def test_modeled_scaling_at_four_shards(self, rng):
        """The queueing-model makespan must improve >= 2x from 1 to 4
        shards (the shards land on distinct channels/dies)."""
        db, queries = make_workload(rng, num_queries=3)
        makespans = {}
        for shards in (1, 4):
            engine = ShardedSearchEngine(
                ClientConfig(PARAMS, key_seed=50), num_shards=shards
            )
            engine.outsource(db)
            makespans[shards] = engine.search_batch(queries).modeled_makespan
        assert makespans[1] / makespans[4] >= 2.0

    @pytest.mark.parametrize("shards", [4, 1])
    def test_search_batch_starts_no_thread(self, rng, monkeypatch, shards):
        """Every (query, shard) task runs on the calling thread, in task
        order: ``Thread.start`` is never called and the process's thread
        count is flat across the batch."""
        db, queries = make_workload(rng, num_queries=2)
        engine = ShardedSearchEngine(
            ClientConfig(PARAMS, key_seed=51), num_shards=shards
        )
        engine.outsource(db)
        started = []
        ran_on = []
        real_task = engine._run_shard_task

        def recording_task(shard, job):
            ran_on.append((threading.current_thread(), job.index, shard.shard_id))
            return real_task(shard, job)

        monkeypatch.setattr(engine, "_run_shard_task", recording_task)
        before = threading.active_count()
        with monkeypatch.context() as patch:
            patch.setattr(
                threading.Thread, "start", lambda self: started.append(self.name)
            )
            report = engine.search_batch(queries)
        assert started == []
        assert threading.active_count() == before
        assert ran_on == [
            (threading.current_thread(), j, s)
            for j in range(len(queries))
            for s in range(shards)
        ]
        assert report.matches_per_query() == [find_all_matches(db, q) for q in queries]
        assert sum(s.tasks_executed for s in report.shards) == len(queries) * shards

    def test_scan_shaped_batch_allocates_no_flag_grid(self):
        """One cache-missing request on the scan shape (n = 1024, 256
        polynomials over 4 shards, a 48-bit query: 33 variants) never
        holds anything the size of the ``(V, P, n)`` flag grid: its peak
        traced allocation stays below half of one byte per cell."""
        import tracemalloc

        params = BFVParams.paper()
        rng = np.random.default_rng(19)
        num_polys = 256
        db = random_bits(num_polys * params.n * 16, rng)
        queries = [random_bits(48, rng) for _ in range(2)]
        db[16 * 5000 + 7 : 16 * 5000 + 7 + 48] = queries[1]
        engine = ShardedSearchEngine(ClientConfig(params, key_seed=19), num_shards=4)
        engine.outsource(db)
        engine.search_batch(queries[:1])  # arenas and database phases built
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            report = engine.search_batch(queries[1:])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        result = report.reports[0]
        assert result.matches == [16 * 5000 + 7]
        cells = result.num_variants * num_polys * params.n
        assert result.num_variants == 33 and result.hom_additions == 33 * num_polys
        assert peak - before < cells // 2

    def test_shard_stats_are_per_batch(self, rng):
        """Hom-Adds, task counts and busy time describe the batch being
        reported, so four identical batches report four equal tallies
        and no shard is busy for longer than the batch took."""
        db, queries = make_workload(rng, num_queries=1)
        engine = ShardedSearchEngine(ClientConfig(PARAMS, key_seed=53), num_shards=2)
        engine.outsource(db)
        reports = [engine.search_batch(queries[:1]) for _ in range(4)]
        for report in reports:
            assert [s.tasks_executed for s in report.shards] == [1, 1]
            assert (
                sum(s.hom_adds for s in report.shards)
                == report.total_hom_additions
                == reports[0].total_hom_additions
            )
            for s in report.shards:
                assert 0 < s.wall_utilization(report.wall_seconds) <= 1.0


class TestNoWorkerProcesses:
    """Shard tasks run in the serving process and nowhere else: nothing
    is spawned, nothing is mapped into ``/dev/shm``."""

    def test_engine_lifecycle_spawns_and_maps_nothing(self, rng):
        import multiprocessing
        import os

        shm = "/dev/shm"
        before = set(os.listdir(shm)) if os.path.isdir(shm) else set()
        db, queries = make_workload(rng)
        with ShardedSearchEngine(
            ClientConfig(PARAMS, key_seed=57), num_shards=4
        ) as engine:
            encrypted = engine.outsource(db)
            expected = engine.search_batch(queries).matches_per_query()
            encrypted.invalidate_caches()
            engine.adopt_database(encrypted)
            assert engine.search_batch(queries).matches_per_query() == expected
            assert multiprocessing.active_children() == []
            if os.path.isdir(shm):
                assert set(os.listdir(shm)) <= before
        assert multiprocessing.active_children() == []

    def test_executor_is_not_an_argument(self):
        with pytest.raises(TypeError):
            ShardedSearchEngine(
                ClientConfig(PARAMS, key_seed=57), executor="thread"
            )

    def test_serving_a_search_never_imports_shared_memory(self):
        import os
        import subprocess
        import sys

        script = "\n".join(
            [
                "import sys",
                "import numpy as np",
                "import repro",
                "from repro.he import BFVParams",
                "db = np.zeros(4096, dtype=np.uint8); db[160:192] = 1",
                "with repro.open_session('bfv-sharded',",
                "        params=BFVParams.test_small(64), num_shards=4,",
                "        key_seed=1, db_bits=db) as session:",
                "    found = session.search(np.ones(32, dtype=np.uint8)).matches",
                "assert found == (160,), found",
                "assert 'multiprocessing.shared_memory' not in sys.modules",
                "print('served')",
            ]
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "served" in proc.stdout


class TestIfpBackendSharding:
    def test_per_shard_inflash_backends(self, rng):
        """Each shard drives its own simulated in-flash adder (CM-IFP)."""
        from repro.ssd import IFPAdditionBackend

        db = random_bits(2 * BITS_PER_POLY, rng)
        q = random_bits(32, rng)
        db[BITS_PER_POLY - 16 : BITS_PER_POLY + 16] = q  # straddles shards
        engine = ShardedSearchEngine(
            ClientConfig(PARAMS, key_seed=52),
            num_shards=2,
            backend_factory=lambda ctx, shard_id: IFPAdditionBackend(ctx),
        )
        engine.outsource(db)
        matches = engine.search(q).matches
        assert BITS_PER_POLY - 16 in matches
        assert matches == find_all_matches(db, q)
        backends = [shard.backend for shard in engine.shards]
        assert backends[0] is not backends[1]
        assert all(b.hom_add_count > 0 for b in backends)


class TestAdoptPipelineDatabase:
    def test_adopts_directly_outsourced_pipeline(self, rng):
        """A database the sequential pipeline outsourced is sharded
        without re-encrypting, and the pipeline stays usable for
        cross-checks."""
        db, queries = make_workload(rng, num_queries=2)
        pipe = SecureStringMatchPipeline(ClientConfig(PARAMS, key_seed=53))
        pipe.outsource_database(db)
        with ShardedSearchEngine(client=pipe.client, num_shards=4) as engine:
            engine.adopt_database(pipe.db)
            report = engine.search_batch(queries)
            assert report.num_shards == 4
            for q, matches in zip(queries, report.matches_per_query()):
                assert matches == find_all_matches(db, q)
                assert matches == pipe.search(q).matches
            # a database the pipeline outsources later is adopted the same way
            db2 = random_bits(2 * BITS_PER_POLY, rng)
            q2 = db2[:32].copy()
            engine.adopt_database(pipe.outsource_database(db2))
            assert engine.search(q2).matches == find_all_matches(db2, q2)
