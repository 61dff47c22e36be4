"""The device model is read off a served batch, not run while serving it.

``search_batch`` hands its :class:`ServeReport` a :class:`ModelReplay`;
the discrete-event replay runs once, when a modeled figure is first
read.  These tests pin the two halves of that contract: the figures are
exactly what an eager ``ServeScheduler.simulate`` of the same batch
gives, and nothing on the request path pays for them.
"""

import json
import random
import sys
import threading
from functools import partial

import numpy as np
import pytest

import repro
from repro.core import ClientConfig
from repro.faults import FaultInjector, FaultPlan
from repro.he import BFVParams
from repro.net import Client, ServiceThread
from repro.serve import ShardedSearchEngine
from repro.serve.cache import CacheStats
from repro.serve.report import ModelReplay, ServeReport, ShardStats
from repro.serve.scheduler import ServeScheduler, ShardTaskTrace
from repro.ssd.queueing import SsdQueueingSimulator
from repro.utils.bits import random_bits

PARAMS = BFVParams.test_small(64)
BITS_PER_POLY = 64 * 16
NUM_POLYS = 10


def _workload(seed=5):
    rng = np.random.default_rng(seed)
    db = random_bits(NUM_POLYS * BITS_PER_POLY, rng)
    queries = [db[off : off + 32].copy() for off in (48, 2000, 7777)]
    return db, queries


@pytest.fixture()
def run_calls(monkeypatch):
    """Count of ``SsdQueueingSimulator.run`` calls, as a one-item list."""
    calls = [0]
    real = SsdQueueingSimulator.run

    def counting(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(SsdQueueingSimulator, "run", counting)
    return calls


def _eager(engine, report):
    """What the request path used to compute: the batch's traces, rebuilt
    from the report and replayed on the spot."""
    job_of_query, jobs = [], {}
    for r in report.reports:
        job_of_query.append(jobs.setdefault(id(r), len(jobs)))
    variants = {jobs[id(r)]: r.num_variants for r in report.reports}
    traces = [
        ShardTaskTrace(job, s.shard_id, variants[job] * s.num_polynomials)
        for job in sorted(variants)
        for s in report.shards
        if s.shard_id not in report.degraded_shards
    ]
    scheduler = engine.scheduler
    sim = scheduler.simulate(traces, engine.db.ciphertexts[0].serialized_bytes)
    per_job = scheduler.per_query_latency(sim)
    return {
        "makespan": sim.makespan,
        "latencies": {i: per_job.get(j, 0.0) for i, j in enumerate(job_of_query)},
        "utilization": [
            sim.die_utilization(*scheduler.placement(s.shard_id))
            for s in report.shards
        ],
    }


@pytest.mark.parametrize("batch", ["one", "three-plus-duplicate"])
@pytest.mark.parametrize("num_shards", [1, 2, 4, 9])
def test_report_equals_eager_replay(num_shards, batch):
    db, queries = _workload()
    batch_queries = queries[:1] if batch == "one" else queries + [queries[1]]
    with ShardedSearchEngine(
        ClientConfig(PARAMS, key_seed=41), num_shards=num_shards
    ) as engine:
        engine.outsource(db)
        report = engine.search_batch(batch_queries)
        want = _eager(engine, report)
    assert want["makespan"] > 0
    assert report.modeled_makespan == want["makespan"]
    assert report.modeled_latencies == want["latencies"]
    assert [s.modeled_utilization for s in report.shards] == want["utilization"]
    n = len(batch_queries)
    assert report.modeled_throughput_qps == n / want["makespan"]
    assert report.modeled_latency_percentile(99) == max(want["latencies"].values())
    if batch != "one":
        assert report.modeled_latencies[3] == report.modeled_latencies[1]


def test_search_batch_never_replays_and_readers_replay_once(run_calls):
    db, queries = _workload()
    with ShardedSearchEngine(ClientConfig(PARAMS, key_seed=41), num_shards=4) as engine:
        engine.outsource(db)
        first = engine.search_batch(queries)
        report = engine.search_batch(queries + [queries[0]])
        # everything a Session / TCP caller touches on the request path
        assert report.matches_per_query() and report.latency_percentile(99) > 0
        assert report.throughput_qps > 0 and report.degraded_shards == []
        assert [s.hom_adds for s in report.shards]
        assert run_calls == [0]

        assert report.modeled_makespan > 0
        assert run_calls == [1]
        for _ in range(2):
            report.summary_table()
            report.to_json()
        report.shard_table()
        assert report.modeled_throughput_qps > 0
        assert report.modeled_latency_percentile(50) > 0
        assert all(s.modeled_utilization > 0 for s in report.shards)
        assert run_calls == [1]

        # the other batch's report is its own replay, started by any field
        assert first.shards[0].modeled_utilization > 0
        assert first.to_dict()["modeled_makespan"] == first.modeled_makespan
        assert run_calls == [2]


def test_racing_first_readers_share_one_replay(run_calls):
    db, queries = _workload()
    with ShardedSearchEngine(ClientConfig(PARAMS, key_seed=41), num_shards=4) as engine:
        engine.outsource(db)
        report = engine.search_batch(queries)
    readers = 8
    barrier = threading.Barrier(readers)
    seen = [None] * readers

    def read(slot):
        barrier.wait(timeout=30)
        # alternate the entry point: the STATS handler serializes, a
        # bench reader pulls single fields
        if slot % 2:
            obj = json.loads(report.to_json())
            seen[slot] = (
                obj["modeled_makespan"],
                {int(k): v for k, v in obj["modeled_latencies"].items()},
                [s["modeled_utilization"] for s in obj["shards"]],
            )
        else:
            seen[slot] = (
                report.modeled_makespan,
                dict(report.modeled_latencies),
                [s.modeled_utilization for s in report.shards],
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert run_calls == [1]
    assert seen[0][0] > 0 and len(seen[0][1]) == len(queries)
    assert all(s == seen[0] for s in seen)


def test_round_trip_keeps_modeled_values_and_never_replays(run_calls):
    db, queries = _workload()
    with ShardedSearchEngine(ClientConfig(PARAMS, key_seed=41), num_shards=2) as engine:
        engine.outsource(db)
        report = engine.search_batch(queries + [queries[2]])
    rebuilt = ServeReport.from_dict(report.to_dict())
    assert run_calls == [1]
    assert rebuilt.modeled_makespan == report.modeled_makespan
    assert rebuilt.modeled_latencies == report.modeled_latencies
    assert [s.modeled_utilization for s in rebuilt.shards] == [
        s.modeled_utilization for s in report.shards
    ]
    assert rebuilt.summary_table() == report.summary_table()
    assert rebuilt.to_json() == report.to_json()
    assert ServeReport.from_json(rebuilt.to_json()).shard_table() == report.shard_table()
    assert run_calls == [1]


def test_open_breaker_shard_has_no_trace_and_zero_utilization():
    db, queries = _workload()
    with ShardedSearchEngine(
        ClientConfig(PARAMS, key_seed=41),
        num_shards=3,
        degraded_mode="partial",
        breaker_threshold=1,
        breaker_cooldown=3600.0,
    ) as engine:
        engine.outsource(db)
        clean = engine.search_batch(queries)
        engine.fault_injector = FaultInjector(FaultPlan().worker_crash(0, shard=1))
        engine.search_batch(queries[:1])
        engine.fault_injector = None
        # the crash (terminal under threads, survived under processes)
        # opened shard 1's breaker: this batch skips it outright
        report = engine.search_batch(queries)
        want = _eager(engine, report)
    assert report.degraded_shards == [1]
    assert report.shards[1].breaker == "open"
    assert [s.modeled_utilization for s in report.shards] == want["utilization"]
    assert report.shards[1].modeled_utilization == 0.0
    assert report.shards[0].modeled_utilization > 0
    assert report.shards[2].modeled_utilization > 0
    assert report.modeled_makespan == want["makespan"]
    assert 0 < report.modeled_makespan <= clean.modeled_makespan
    assert all(s.modeled_utilization > 0 for s in clean.shards)


def test_stats_frame_carries_the_in_process_makespan():
    db, queries = _workload()
    with repro.open_session(
        "bfv-sharded", params=PARAMS, num_shards=2, key_seed=6
    ) as session:
        session.outsource(db)
        session.search(queries[0])
        local = session.engine.last_serve_report.modeled_makespan
    with ServiceThread(
        "bfv-sharded", params=PARAMS, num_shards=2, key_seed=6
    ) as service:
        with Client(service.address) as client:
            client.outsource(db)
            client.search(queries[0])
            remote = json.loads(client.stats().report_json)
    assert local > 0
    assert remote["modeled_makespan"] == local


def _report_over(scheduler, traces, job_of_query, placements):
    model = ModelReplay(scheduler, traces, 2048, job_of_query)
    return ServeReport(
        reports=[],
        num_shards=len(placements),
        wall_seconds=0.1,
        latencies=[],
        deduplicated_hits=0,
        cache=CacheStats(capacity=8, size=0, hits=0, misses=0, evictions=0),
        shards=[
            ShardStats(
                shard_id=i,
                channel=channel,
                die=die,
                num_polynomials=1,
                hom_adds=0,
                tasks_executed=0,
                busy_seconds=0.0,
                modeled_utilization=partial(model.utilization, channel, die),
            )
            for i, (channel, die) in enumerate(placements)
        ],
        modeled_makespan=model.makespan,
        modeled_latencies=model.latencies,
    )


def test_modeled_figures_do_not_depend_on_trace_completion_order():
    """Nine shards put two on channel 0, where the simulator breaks
    ready-time ties by submission order — so the order worker threads
    happened to finish in must not reach it."""
    scheduler = ServeScheduler()
    traces = [
        ShardTaskTrace(query, shard, 3 + query + shard % 2)
        for query in range(3)
        for shard in range(9)
    ]
    placements = [scheduler.placement(shard) for shard in range(9)]
    assert placements[8][0] == placements[0][0]
    job_of_query = [0, 1, 2, 1]

    def figures(order):
        report = _report_over(scheduler, order, job_of_query, placements)
        return (
            report.modeled_makespan,
            report.modeled_latencies,
            [s.modeled_utilization for s in report.shards],
        )

    want = figures(traces)
    assert want[0] > 0 and want[1][3] == want[1][1]
    rnd = random.Random(14)
    orders = [traces[::-1]] + [rnd.sample(traces, len(traces)) for _ in range(20)]
    for order in orders:
        assert figures(order) == want
    # the replay itself is order-sensitive; the sort is what holds it still
    in_order = scheduler.per_query_latency(scheduler.simulate(traces, 2048))
    assert any(
        scheduler.per_query_latency(scheduler.simulate(order, 2048)) != in_order
        for order in orders
    )
