"""ServeReport rendering robustness, JSON round trip, and the scheduler
as a device model with no state of its own."""

import numpy as np

from repro.serve.cache import CacheStats
from repro.serve.report import ServeReport, ShardStats
from repro.serve.scheduler import ServeScheduler, ShardTaskTrace
from repro.utils.stats import percentile


def _empty_report() -> ServeReport:
    """What a serving front end holds before any batch ran (or after
    every query was shed by admission control)."""
    return ServeReport(
        reports=[],
        num_shards=4,
        wall_seconds=0.0,
        latencies=[],
        deduplicated_hits=0,
        cache=CacheStats(capacity=8, size=0, hits=0, misses=0, evictions=0),
    )


class TestEmptyLatencySample:
    def test_percentiles_are_zero_not_raising(self):
        report = _empty_report()
        for pct in (50, 95, 99, 100):
            assert report.latency_percentile(pct) == 0.0
            assert report.modeled_latency_percentile(pct) == 0.0

    def test_summary_table_renders(self):
        table = _empty_report().summary_table()
        assert "serving batch report" in table
        assert "0.00 / 0.00 / 0.00 ms" in table

    def test_shard_table_renders(self):
        assert "per-shard utilization" in _empty_report().shard_table()

    def test_throughput_zero_on_zero_wall(self):
        report = _empty_report()
        assert report.throughput_qps == 0.0
        assert report.modeled_throughput_qps == 0.0


def _shard(shard_id, *, breaker="closed") -> ShardStats:
    return ShardStats(
        shard_id=shard_id,
        channel=0,
        die=shard_id,
        num_polynomials=4,
        hom_adds=64,
        tasks_executed=2,
        busy_seconds=0.01,
        modeled_utilization=0.5,
        breaker=breaker,
    )


class TestPercentileHelper:
    def test_empty_sequence(self):
        assert percentile([], 99) == 0.0

    def test_empty_numpy_array(self):
        assert percentile(np.array([]), 50) == 0.0

    def test_numpy_array_input(self):
        # `not array` raises on multi-element arrays; the helper must
        # accept the ndarray latency vectors benchmarks hand it
        assert percentile(np.array([3.0, 1.0, 2.0]), 50) == 2.0

    def test_nearest_rank_unchanged(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile(values, 50) == 0.2
        assert percentile(values, 100) == 0.4


class TestSchedulerIsTheDeviceModel:
    def test_holds_no_mutable_state(self):
        """Sheds and admit-rejects are counted by the service and the
        tenant's accounting row, never here: the scheduler is its three
        model parameters, and replaying leaves it as it was."""
        scheduler = ServeScheduler()
        before = dict(vars(scheduler))
        assert set(before) == {"geometry", "timings", "word_bits"}
        assert scheduler.simulate([], ciphertext_bytes=0).makespan == 0.0
        traces = [ShardTaskTrace(query_index=0, shard_id=1, hom_adds=3)]
        assert scheduler.simulate(traces, ciphertext_bytes=8192).makespan > 0
        assert vars(scheduler) == before


class TestServeReportJsonRoundTrip:
    """The STATS frame's report_json field and bench artifacts rely on
    ServeReport.to_json/from_json preserving everything."""

    def _full_report(self) -> ServeReport:
        from repro.core.matcher import MatchCandidate
        from repro.core.pipeline import SearchReport

        return ServeReport(
            reports=[
                SearchReport(
                    matches=[160, 512],
                    candidates=[
                        MatchCandidate(
                            offset=160, phase=0, variant_index=0,
                            verified=True,
                        ),
                        MatchCandidate(
                            offset=512, phase=0, variant_index=3,
                            verified=None,
                        ),
                    ],
                    hom_additions=128,
                    num_variants=16,
                    encrypted_db_bytes=1 << 20,
                ),
                SearchReport(
                    matches=[],
                    candidates=[],
                    hom_additions=64,
                    num_variants=16,
                    encrypted_db_bytes=1 << 20,
                ),
            ],
            num_shards=2,
            wall_seconds=0.125,
            latencies=[0.01, 0.02],
            deduplicated_hits=1,
            cache=CacheStats(capacity=8, size=3, hits=5, misses=3, evictions=1),
            shards=[_shard(0), _shard(1, breaker="open")],
            modeled_makespan=0.05,
            modeled_latencies={0: 0.01, 1: 0.04},
            encrypted_db_bytes=1 << 21,
            degraded_shards=[1],
        )

    def test_roundtrip_identity(self):
        report = self._full_report()
        got = ServeReport.from_json(report.to_json())
        assert got == report

    def test_operational_fields_survive(self):
        got = ServeReport.from_json(self._full_report().to_json())
        assert got.degraded_shards == [1]
        assert [s.breaker for s in got.shards] == ["closed", "open"]
        assert got.modeled_latencies == {0: 0.01, 1: 0.04}

    def test_json_is_plain_types(self):
        import json

        obj = json.loads(self._full_report().to_json())
        assert obj["version"] == 1
        assert obj["degraded_shards"] == [1]
        assert obj["reports"][0]["matches"] == [160, 512]

    def test_version_guard(self):
        import json

        obj = json.loads(self._full_report().to_json())
        obj["version"] = 9
        try:
            ServeReport.from_dict(obj)
        except ValueError as exc:
            assert "version 9" in str(exc)
        else:
            raise AssertionError("version guard did not fire")

    def test_reads_a_report_written_before_the_executor_fields_went(self):
        import json

        report = self._full_report()
        obj = json.loads(report.to_json())
        obj.update(executor="process", worker_restarts=2)
        # and the worker-thread fields that went with the threads in 4.0
        obj.update(num_workers=2, queue_depth_max=4, queue_depth_mean=1.5)
        for shard in obj["shards"]:
            shard.update(restarts=1, alive=False)
        # and the scheduler's engine-lifetime counters that went in 9.0
        obj.update(sheds=7, admit_rejected=2)
        assert ServeReport.from_dict(obj) == report

    def test_live_engine_report_roundtrips(self):
        import numpy as np

        import repro
        from repro.he import BFVParams
        from repro.utils.bits import random_bits

        rng = np.random.default_rng(5)
        db = random_bits(4096, rng)
        q = random_bits(32, rng)
        db[320:352] = q
        with repro.open_session(
            "bfv-sharded",
            params=BFVParams.test_small(64),
            num_shards=2,
            key_seed=5,
            db_bits=db,
        ) as session:
            session.search_batch([q, q])
            report = session.engine.last_serve_report
        got = ServeReport.from_json(report.to_json())
        assert got.matches_per_query() == report.matches_per_query()
        assert got == report
