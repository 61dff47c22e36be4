"""SLO condensation and the machine-readable report round-trip."""

import pytest

from repro.load import LoadReport, LoadRun, RequestOutcome, ScenarioSlo
from repro.load.harness import COMPLETED, FAILED, SHED
from repro.load.trace import LoadTrace, TraceEvent
from repro.api.requests import ExactSearch


def _synthetic_run():
    outcomes = [
        RequestOutcome(0, 0.00, COMPLETED, 0.010, 1, True),
        RequestOutcome(1, 0.05, COMPLETED, 0.030, 0, True),
        RequestOutcome(2, 0.10, SHED, 0.0),
        RequestOutcome(3, 0.15, COMPLETED, 0.020, 2, False),
        RequestOutcome(4, 0.20, FAILED, 0.0, error="RuntimeError: x"),
    ]
    return LoadRun(outcomes=outcomes, wall_seconds=0.5)


def _synthetic_trace():
    request = ExactSearch.from_bits([1, 0, 1])
    return LoadTrace(
        scenario="database", seed=9, arrival="poisson", rate=25.0,
        events=[TraceEvent(i, 0.05 * i, request) for i in range(5)],
    )


class TestScenarioSlo:
    def test_from_run_accounting(self):
        slo = ScenarioSlo.from_run(_synthetic_trace(), _synthetic_run())
        assert (slo.offered, slo.completed, slo.shed, slo.failed) == (5, 3, 1, 1)
        assert slo.mismatches == 1
        assert slo.balanced
        assert slo.shed_rate == pytest.approx(0.2)
        assert slo.achieved_qps == pytest.approx(3 / 0.5)

    def test_percentiles_from_completed_latencies_only(self):
        slo = ScenarioSlo.from_run(_synthetic_trace(), _synthetic_run())
        # nearest-rank over {10, 20, 30} ms: shed/failed contribute nothing
        assert slo.p50_ms == pytest.approx(20.0)
        assert slo.p99_ms == pytest.approx(30.0)

    def test_unbalanced_detected(self):
        slo = ScenarioSlo(
            scenario="x", offered=5, completed=3, shed=0, failed=1,
            mismatches=0, duration_seconds=1.0, wall_seconds=1.0,
            offered_qps=5.0, achieved_qps=3.0, p50_ms=1.0, p95_ms=1.0,
            p99_ms=1.0,
        )
        assert not slo.balanced


class TestLoadReport:
    def _report(self):
        slo = ScenarioSlo.from_run(_synthetic_trace(), _synthetic_run())
        return LoadReport(
            target="in-process:bfv-sharded",
            arrival="poisson",
            rate=25.0,
            seed=9,
            scenarios=[slo],
        )

    def test_aggregates(self):
        report = self._report()
        assert (report.offered, report.completed, report.shed) == (5, 3, 1)
        assert report.failed == report.mismatches == 1
        assert report.balanced

    def test_table_renders_lanes_and_operational_note(self):
        table = self._report().table()
        assert "open-loop load SLO report" in table
        assert "database" in table
        assert "target in-process:bfv-sharded; arrival poisson" in table
        assert "shed rate" in table

    def test_json_roundtrip_identity(self):
        report = self._report()
        got = LoadReport.from_json(report.to_json())
        assert got == report

    def test_json_totals_block_for_ci(self):
        import json

        obj = json.loads(self._report().to_json())
        totals = obj["totals"]
        assert totals["offered"] == (
            totals["completed"] + totals["shed"] + totals["failed"]
        )
        assert totals["balanced"] is True
        assert obj["scenarios"][0]["shed_rate"] == pytest.approx(0.2)

    def test_version_guard(self):
        import json

        obj = json.loads(self._report().to_json())
        obj["version"] = 42
        with pytest.raises(ValueError, match="version 42"):
            LoadReport.from_dict(obj)

    def test_reads_reports_written_with_the_executor_keys(self):
        """Reports written before 3.0 — the committed
        ``benchmarks/out/*_slo.json`` among them — carry ``executor`` /
        ``worker_restarts``, and every one before 9.0 a
        ``scheduler_sheds``; they must still load."""
        import json
        from pathlib import Path

        obj = json.loads(self._report().to_json())
        obj.update(executor="process", worker_restarts=1, scheduler_sheds=1)
        assert LoadReport.from_dict(obj) == self._report()
        out = Path(__file__).resolve().parents[2] / "benchmarks" / "out"
        for name in ("load_slo.json", "chaos_slo.json", "tenant_slo.json"):
            committed = json.loads((out / name).read_text())
            report = LoadReport.from_dict(committed)
            assert report.offered == committed["totals"]["offered"]
