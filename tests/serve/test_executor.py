"""Process-parallel shard executor: cross-executor match parity for
fused-kernel and per-pair-adder shards, shared-memory arena re-attach, worker crash
recovery with single-shard restart, spawn-safety from a clean
interpreter, and the executor selection plumbing (explicit >
process default > env var > thread)."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import ClientConfig, CPUAdditionBackend, IndexMode
from repro.faults import crash_shard_worker
from repro.he import BFVParams
from repro.serve import (
    EXECUTOR_ENV_VAR,
    ShardedSearchEngine,
    get_default_serve_executor,
    resolve_serve_executor,
    set_default_serve_executor,
)
from repro.utils.bits import random_bits
from tests.oracles import per_pair_factory

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _workload(num_polys=6, num_queries=3, seed=23):
    rng = np.random.default_rng(seed)
    params = BFVParams.test_small(64)
    db = random_bits(num_polys * params.n * 16, rng)
    queries = []
    for k in range(num_queries):
        q = random_bits(32, rng)
        off = 16 * (7 + 53 * k)
        db[off : off + 32] = q
        queries.append(q)
    return params, db, queries


def _engine(params, *, executor, kernel="fused", num_shards=3, **cfg):
    return ShardedSearchEngine(
        ClientConfig(params, key_seed=23, **cfg),
        num_shards=num_shards,
        backend_factory=per_pair_factory if kernel == "object" else None,
        executor=executor,
    )


# -- selection plumbing ------------------------------------------------------


class TestExecutorSelection:
    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_serve_executor(None) == "thread"
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        assert resolve_serve_executor(None) == "process"
        set_default_serve_executor("thread")
        try:
            assert get_default_serve_executor() == "thread"
            assert resolve_serve_executor(None) == "thread"
            assert resolve_serve_executor("process") == "process"
        finally:
            set_default_serve_executor(None)

    def test_bad_names_rejected(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_serve_executor("fork")
        with pytest.raises(ValueError):
            set_default_serve_executor("greenlet")
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "bogus")
        with pytest.raises(ValueError):
            resolve_serve_executor(None)

    def test_engine_rejects_unknown_executor(self):
        params, _, _ = _workload(num_polys=1, num_queries=1)
        with pytest.raises(ValueError):
            ShardedSearchEngine(
                ClientConfig(params, key_seed=1), executor="fork"
            )

    def test_env_var_reaches_engine(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "process")
        params, db, queries = _workload(num_polys=2, num_queries=1)
        with ShardedSearchEngine(
            ClientConfig(params, key_seed=23), num_shards=2
        ) as engine:
            engine.outsource(db)
            assert engine.executor_kind == "process"
            report = engine.search_batch(queries)
            assert report.executor == "process"

    def test_stateful_backend_falls_back_to_thread(self):
        class OwnAdder(CPUAdditionBackend):
            supports_fused = False

        params, db, queries = _workload(num_polys=2, num_queries=1)
        engine = ShardedSearchEngine(
            ClientConfig(params, key_seed=23),
            num_shards=2,
            executor="process",
            backend_factory=lambda ctx, shard_id: OwnAdder(ctx),
        )
        with engine:
            engine.outsource(db)
            assert engine.executor_kind == "thread"
            report = engine.search_batch(queries)
            assert report.executor == "thread"
            assert engine._process_executor is None


# -- cross-executor parity ---------------------------------------------------


@pytest.mark.parametrize("kernel", ["fused", "object"])
def test_process_matches_thread_byte_identical(kernel):
    params, db, queries = _workload()
    reports = {}
    for executor in ("thread", "process"):
        with _engine(params, executor=executor, kernel=kernel) as engine:
            engine.outsource(db)
            reports[executor] = engine.search_batch(queries + [queries[0]])
    t, p = reports["thread"], reports["process"]
    assert t.matches_per_query() == p.matches_per_query()
    assert [r.hom_additions for r in t.reports] == [
        r.hom_additions for r in p.reports
    ]
    assert t.deduplicated_hits == p.deduplicated_hits == 1
    assert sum(s.hom_adds for s in p.shards) == sum(
        s.hom_adds for s in t.shards
    )
    # per-pair adders cannot be replicated in a worker: threads serve them
    assert p.executor == ("process" if kernel == "fused" else "thread")
    assert t.executor == "thread"
    assert p.worker_restarts == 0
    assert all(s.alive for s in p.shards)


def test_process_deterministic_mode_matches_thread():
    params, db, queries = _workload()
    reports = {}
    for executor in ("thread", "process"):
        with _engine(
            params,
            executor=executor,
            index_mode=IndexMode.SERVER_DETERMINISTIC,
        ) as engine:
            engine.outsource(db)
            reports[executor] = engine.search_batch(queries)
    assert (
        reports["thread"].matches_per_query()
        == reports["process"].matches_per_query()
    )


# -- shared-memory lifecycle -------------------------------------------------


def test_workers_warm_start_at_outsourcing():
    params, db, _ = _workload(num_polys=2, num_queries=1)
    with _engine(params, executor="process", num_shards=2) as engine:
        engine.outsource(db)
        workers = engine._process_executor
        assert workers is not None
        assert all(workers.shard_alive(s.shard_id) for s in engine.shards)


def test_invalidate_caches_reattaches_workers():
    """In-place mutation + invalidate_caches() must re-share the arena
    and re-attach every worker instead of serving stale coefficients."""
    params, db, queries = _workload(num_polys=4)
    with _engine(params, executor="process", num_shards=2) as engine:
        engine.outsource(db)
        before = engine.search_batch(queries[:1]).reports[0].matches
        assert before
        zero_pt = engine.client.ctx.plaintext(
            np.zeros(params.n, dtype=np.int64)
        )
        engine.db.ciphertexts[0] = engine.client.ctx.encrypt(
            zero_pt, engine.client.pk
        )
        engine.db.invalidate_caches()
        after = engine.search_batch(queries[:1]).reports[0].matches
    with _engine(params, executor="thread", num_shards=2) as oracle:
        oracle.adopt_database(engine.db)
        expected = oracle.search_batch(queries[:1]).reports[0].matches
    assert after == expected
    assert before != after


def test_close_terminates_workers():
    params, db, _ = _workload(num_polys=2, num_queries=1)
    engine = _engine(params, executor="process", num_shards=2)
    engine.outsource(db)
    workers = engine._process_executor
    procs = [h.process for h in workers._handles.values()]
    engine.close()
    assert engine._process_executor is None
    assert all(not p.is_alive() for p in procs)
    engine.close()  # idempotent


def test_reshare_after_invalidate_unlinks_old_segments():
    """Re-sharing after invalidate_caches() must unlink the previous
    /dev/shm segments *eagerly* — not when GC happens to collect the
    old arena — or repeated adoption leaks kernel memory."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this host")
    params, db, queries = _workload(num_polys=4)
    with _engine(params, executor="process", num_shards=2) as engine:
        engine.outsource(db)
        before = engine.search_batch(queries[:1]).matches_per_query()
        handle = engine._shared_handle
        assert handle is not None and handle.kind == "shm"
        old_refs = [handle.stack_ref]
        if handle.limbs_ref is not None:
            old_refs.append(handle.limbs_ref)
        listing = set(os.listdir("/dev/shm"))
        for ref in old_refs:
            assert ref in listing
        # Strong references to the shared blocks: if the segments
        # disappear anyway, it was the eager unlink, not refcount GC.
        old_blocks = list(engine.db._arena._blocks)
        assert old_blocks
        engine.db.invalidate_caches()
        listing = set(os.listdir("/dev/shm"))
        for ref in old_refs:
            assert ref not in listing, "stale shm segment leaked until GC"
        # the engine re-shares a fresh arena and keeps serving
        after = engine.search_batch(queries[:1]).matches_per_query()
        assert after == before
        new_handle = engine._shared_handle
        assert new_handle is not None and new_handle != handle
        listing = set(os.listdir("/dev/shm"))
        assert new_handle.stack_ref in listing
    # engine close tears the worker fleet down; the db still owns the
    # current arena — dropping it must clean the last segments too
    engine.db.invalidate_caches()
    listing = set(os.listdir("/dev/shm"))
    assert new_handle.stack_ref not in listing


# -- lazy arena build ------------------------------------------------------


def test_adopt_defers_arena_rows_to_first_query():
    """Adopt returns with an unbuilt arena; the first query
    materializes it."""
    params, db, queries = _workload()
    # thread executor: the process path's share() materializes the stack
    # at adopt, which is exactly what we are *not* probing here
    with _engine(params, executor="thread", num_shards=2) as lazy:
        encrypted = lazy.outsource(db)
        assert encrypted._arena is None  # adopt paid nothing
        lazy.search_batch(queries[:1])
        arena = encrypted._arena
        assert arena is not None
        assert arena.fully_built  # the query touched every shard


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_fused_limb_major_decrypt_matches_object_kernel(executor):
    """The limb-major decrypt layout must stay bit-identical to the
    per-pair adder's per-block decryption, under both executors."""
    params, db, queries = _workload()
    results = {}
    for kernel in ("object", "fused"):
        with _engine(params, executor=executor, kernel=kernel) as engine:
            engine.outsource(db)
            results[kernel] = engine.search_batch(queries).matches_per_query()
    assert results["fused"] == results["object"]


# -- crash recovery ----------------------------------------------------------


def test_worker_crash_mid_batch_recovers_with_restart():
    """Killing one shard process must not lose the batch: the dead
    worker is detected at its next task, restarted once, the task
    retried, and the match set stays byte-identical.  Shed accounting
    is untouched — a crash is a restart, not an admission-control
    shed."""
    params, db, queries = _workload()
    with _engine(params, executor="thread") as oracle:
        oracle.outsource(db)
        expected = oracle.search_batch(queries).matches_per_query()

    with _engine(params, executor="process") as engine:
        engine.outsource(db)
        engine.search_batch(queries[:1])  # workers proven healthy
        victim = engine.shards[1].shard_id
        assert crash_shard_worker(engine._process_executor, victim)
        assert not engine._process_executor.shard_alive(victim)
        report = engine.search_batch(queries)
        assert report.matches_per_query() == expected
        assert report.worker_restarts == 1
        assert engine.worker_restarts == 1
        assert engine.degraded_tasks >= 1
        by_id = {s.shard_id: s for s in report.shards}
        assert by_id[victim].restarts == 1
        assert by_id[victim].alive
        assert all(
            s.restarts == 0 for s in report.shards if s.shard_id != victim
        )
        assert engine.scheduler.sheds == 0
        # restarted worker keeps serving subsequent batches
        again = engine.search_batch(queries)
        assert again.matches_per_query() == expected
        assert again.worker_restarts == 0


# -- spawn safety ------------------------------------------------------------


def test_process_engine_constructible_from_clean_interpreter():
    """Regression: the spawn start method re-imports modules in the
    child, so building a process-executor engine from a fresh
    interpreter (no pytest, no pre-imported repro state) must work and
    must not fall into recursive process creation."""
    script = "\n".join(
        [
            "import numpy as np",
            "from repro.core import ClientConfig",
            "from repro.he import BFVParams",
            "from repro.serve import ShardedSearchEngine",
            "from repro.utils.bits import random_bits",
            "rng = np.random.default_rng(23)",
            "params = BFVParams.test_small(64)",
            "db = random_bits(2 * params.n * 16, rng)",
            "q = random_bits(32, rng)",
            "db[16 * 7 : 16 * 7 + 32] = q",
            "engine = ShardedSearchEngine(",
            "    ClientConfig(params, key_seed=23),",
            "    num_shards=2, executor='process')",
            "with engine:",
            "    engine.outsource(db)",
            "    report = engine.search_batch([q])",
            "assert report.reports[0].matches == [16 * 7], report.reports",
            "assert report.executor == 'process'",
            "print('spawn-ok')",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC_DIR)
    env.pop(EXECUTOR_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "spawn-ok" in proc.stdout


# -- shutdown idempotency -----------------------------------------------------


def test_shutdown_idempotent_across_paths():
    """Engine close, drain, and GC can all race to shut the process
    executor down; only the first claim runs the teardown, and repeated
    shutdowns never double-release worker pipes or re-join corpses."""
    params, db, queries = _workload(num_polys=2, num_queries=1)
    engine = _engine(params, executor="process", num_shards=2)
    with engine:
        engine.outsource(db)
        report = engine.search_batch(queries)
        assert report.reports[0].matches
        executor = engine._process_executor
        assert executor is not None
        executor.shutdown()
        assert executor._finalizer.detach() is None  # claimed exactly once
        executor.shutdown()  # second call: no-op
        executor.shutdown()
    engine.close()  # engine close after explicit shutdown: still a no-op
