"""Per-scenario SLO reporting: percentiles, q/s, sheds, correctness.

:class:`ScenarioSlo` condenses one :class:`~repro.load.harness.LoadRun`
into the numbers a serving deployment watches — p50/p95/p99 latency,
achieved vs offered q/s, shed rate, failures, and how many completed
requests diverged from the trace's plaintext ground truth.
:class:`LoadReport` aggregates scenarios, renders through
:mod:`repro.eval.tables` (so load output matches the paper-figure
reproductions) and round-trips to JSON — the machine-readable artifact
``bench_load.py`` commits and the CI load-smoke step parses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..eval.tables import format_table
from ..utils.stats import percentile
from .harness import ADMIT_REJECTED, COMPLETED, FAILED, SHED, LoadRun
from .trace import LoadTrace

REPORT_VERSION = 1


@dataclass(frozen=True)
class ScenarioSlo:
    """SLO summary of one scenario's open-loop run."""

    scenario: str
    offered: int
    completed: int
    shed: int
    failed: int
    #: completed requests whose matches diverged from ground truth
    mismatches: int
    #: offered-load window (last scheduled arrival, seconds)
    duration_seconds: float
    #: submit-first to resolve-last wall clock, seconds
    wall_seconds: float
    offered_qps: float
    achieved_qps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    #: fail-fast rejections by the adaptive admission controller
    admit_rejected: int = 0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def reject_rate(self) -> float:
        """Combined shed + admit-reject fraction of offered load."""
        if not self.offered:
            return 0.0
        return (self.shed + self.admit_rejected) / self.offered

    @property
    def balanced(self) -> bool:
        """Accounting exact: offered == completed + shed +
        admit_rejected + failed."""
        return self.offered == (
            self.completed + self.shed + self.admit_rejected + self.failed
        )

    @classmethod
    def from_run(cls, trace: LoadTrace, run: LoadRun) -> "ScenarioSlo":
        latencies = run.latencies()
        completed = run.count(COMPLETED)
        wall = run.wall_seconds
        return cls(
            scenario=trace.scenario,
            offered=run.offered,
            completed=completed,
            shed=run.count(SHED),
            failed=run.count(FAILED),
            admit_rejected=run.count(ADMIT_REJECTED),
            mismatches=sum(
                1 for o in run.outcomes if o.matched_expected is False
            ),
            duration_seconds=trace.duration,
            wall_seconds=wall,
            offered_qps=trace.offered_qps,
            achieved_qps=completed / wall if wall > 0 else 0.0,
            p50_ms=percentile(latencies, 50) * 1e3,
            p95_ms=percentile(latencies, 95) * 1e3,
            p99_ms=percentile(latencies, 99) * 1e3,
        )


@dataclass
class LoadReport:
    """Aggregated SLO report of one load-harness invocation."""

    target: str
    arrival: str
    rate: float
    seed: int
    scenarios: List[ScenarioSlo] = field(default_factory=list)
    #: per-tenant accounting rows from a multi-tenant service's STATS
    #: frame ({} against single-tenant targets)
    tenants: Dict[str, Dict] = field(default_factory=dict)
    version: int = REPORT_VERSION

    # -- aggregates ------------------------------------------------------

    @property
    def offered(self) -> int:
        return sum(s.offered for s in self.scenarios)

    @property
    def completed(self) -> int:
        return sum(s.completed for s in self.scenarios)

    @property
    def shed(self) -> int:
        return sum(s.shed for s in self.scenarios)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.scenarios)

    @property
    def admit_rejected(self) -> int:
        return sum(s.admit_rejected for s in self.scenarios)

    @property
    def mismatches(self) -> int:
        return sum(s.mismatches for s in self.scenarios)

    @property
    def balanced(self) -> bool:
        return all(s.balanced for s in self.scenarios)

    # -- rendering -------------------------------------------------------

    def table(self) -> str:
        rows = []
        for s in self.scenarios:
            rows.append(
                [
                    s.scenario,
                    s.offered,
                    s.completed,
                    s.shed,
                    s.admit_rejected,
                    s.failed,
                    f"{s.shed_rate * 100:.1f}%",
                    f"{s.offered_qps:.1f}",
                    f"{s.achieved_qps:.1f}",
                    f"{s.p50_ms:.1f}",
                    f"{s.p95_ms:.1f}",
                    f"{s.p99_ms:.1f}",
                    s.mismatches,
                ]
            )
        note = (
            f"target {self.target}; arrival {self.arrival} @ {self.rate:.1f} "
            f"req/s nominal; seed {self.seed}"
        )
        return format_table(
            "open-loop load SLO report",
            (
                "scenario",
                "offered",
                "completed",
                "shed",
                "admit rej",
                "failed",
                "shed rate",
                "offered q/s",
                "achieved q/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "mismatches",
            ),
            rows,
            paper_note=note,
        )

    # -- machine-readable artifact ---------------------------------------

    def to_dict(self) -> Dict:
        out = asdict(self)
        # derived accounting the CI assertions read without recomputing
        out["totals"] = {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "admit_rejected": self.admit_rejected,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "balanced": self.balanced,
        }
        for row, slo in zip(out["scenarios"], self.scenarios):
            row["shed_rate"] = slo.shed_rate
            row["reject_rate"] = slo.reject_rate
            row["balanced"] = slo.balanced
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, obj: Dict) -> "LoadReport":
        version = int(obj.get("version", -1))
        if version != REPORT_VERSION:
            raise ValueError(
                f"load report version {version} unsupported "
                f"(this build reads {REPORT_VERSION})"
            )
        slo_fields = {f for f in ScenarioSlo.__dataclass_fields__}
        scenarios = [
            ScenarioSlo(**{k: v for k, v in row.items() if k in slo_fields})
            for row in obj.get("scenarios", [])
        ]
        return cls(
            target=obj["target"],
            arrival=obj["arrival"],
            rate=float(obj["rate"]),
            seed=int(obj["seed"]),
            scenarios=scenarios,
            tenants=dict(obj.get("tenants", {})),
            version=version,
        )

    @classmethod
    def from_json(cls, text: str) -> "LoadReport":
        return cls.from_dict(json.loads(text))
