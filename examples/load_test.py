#!/usr/bin/env python3
"""Trace-driven load testing with ``repro.load``.

Three short acts over the scenario registry:

1. **Record** a seeded Poisson request trace for the ``database``
   scenario (32-bit encrypted key lookups) and replay it bit-for-bit
   from disk — the record/replay contract that makes load results
   reproducible across machines.
2. **Drive** the trace open-loop against an in-process ``bfv-sharded``
   session and read the per-scenario SLO report (p50/p95/p99,
   achieved vs offered q/s, exact shed accounting).
3. **Clamp**: the ``readmapper`` scenario needs batching + wildcards,
   so pointing it at the plain ``bfv`` engine is refused up front by
   the capability check instead of failing mid-run.

Run:  python examples/load_test.py
"""

import sys
import tempfile
from pathlib import Path

import repro
from repro.api import CapabilityError, DEFAULT_REGISTRY
from repro.he import BFVParams
from repro.load import (
    SCENARIO_REGISTRY,
    LoadReport,
    LoadTrace,
    PoissonArrivals,
    ScenarioSlo,
    SessionTarget,
    generate_trace,
    run_trace,
)

PARAMS = BFVParams.test_small(64)
SEED = 42


def record_and_replay(tmp: Path) -> LoadTrace:
    print("=== act 1: record a trace, replay it from disk ===")
    scenario = SCENARIO_REGISTRY.create("database", seed=SEED)
    trace = generate_trace(
        scenario, PoissonArrivals(), rate=25.0, max_requests=12
    )
    path = tmp / "database.jsonl"
    trace.save(path)
    reloaded = LoadTrace.load(path)
    same = [
        (a.at, a.request, a.expected) for a in trace.events
    ] == [(b.at, b.request, b.expected) for b in reloaded.events]
    print(
        f"recorded {trace.num_requests} requests "
        f"({trace.offered_qps:.1f} q/s offered) -> {path.name}; "
        f"reload identical: {same}"
    )
    if not same:
        raise SystemExit("trace replay diverged")
    return reloaded


def drive(trace: LoadTrace) -> LoadReport:
    print()
    print("=== act 2: open-loop run against an in-process session ===")
    scenario = SCENARIO_REGISTRY.create(trace.scenario, seed=trace.seed)
    session = repro.open_session(
        "bfv-sharded", params=PARAMS, num_shards=2, key_seed=SEED
    )
    target = SessionTarget(session, owns_session=True)
    try:
        scenario.check(target.capabilities, target.describe())
        target.outsource(scenario.db_bits())
        run = run_trace(trace, target)
    finally:
        target.close()
    report = LoadReport(
        target="in-process:bfv-sharded",
        arrival=trace.arrival,
        rate=trace.rate,
        seed=trace.seed,
        scenarios=[ScenarioSlo.from_run(trace, run)],
    )
    print(report.table())
    return report


def clamp() -> None:
    print()
    print("=== act 3: capability clamp before any ciphertext moves ===")
    scenario = SCENARIO_REGISTRY.create("readmapper", seed=SEED)
    caps = DEFAULT_REGISTRY.spec("bfv").capabilities
    try:
        scenario.check(caps, "bfv")
    except CapabilityError as exc:
        print(f"readmapper vs plain bfv refused as expected:\n  {exc}")
        return
    raise SystemExit("capability clamp did not fire")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        trace = record_and_replay(Path(tmp))
        report = drive(trace)
    clamp()
    ok = report.balanced and not report.failed and not report.mismatches
    print()
    print(
        f"accounting balanced: {report.balanced}; failures: "
        f"{report.failed}; oracle mismatches: {report.mismatches}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
