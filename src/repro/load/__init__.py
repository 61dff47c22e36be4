"""Trace-driven open-loop load harness over the workloads package.

The measurement layer the ROADMAP's "millions of users" north star
asks for: the paper's case-study workloads (dna, biometric, database,
readmapper) become typed, seeded request streams
(:mod:`repro.load.scenarios`), an open-loop generator schedules them
under Poisson / bursty / constant arrivals
(:mod:`repro.load.arrival`), traces record and replay bit-for-bit
(:mod:`repro.load.trace`), and every run condenses into a per-scenario
SLO report with exact shed accounting (:mod:`repro.load.slo`).

Quick start (in-process)::

    from repro.load import SCENARIO_REGISTRY, PoissonArrivals
    from repro.load import generate_trace, run_trace, SessionTarget, ScenarioSlo
    import repro

    scenario = SCENARIO_REGISTRY.create("database", seed=7)
    trace = generate_trace(scenario, PoissonArrivals(), rate=20, duration=2)
    with repro.open_session("bfv-sharded", num_shards=2) as session:
        target = SessionTarget(session)
        scenario.check(target.capabilities, target.describe())
        target.outsource(scenario.db_bits())
        slo = ScenarioSlo.from_run(trace, run_trace(trace, target))

Or from the command line: ``python -m repro load --scenario database
--arrival poisson --rate 20 --duration 2`` (add ``--remote host:port``
to drive a ``serve-net`` service with per-request deadlines).
"""

from .arrival import (
    ARRIVAL_PROCESSES,
    ArrivalProcess,
    BurstyArrivals,
    ConstantArrivals,
    PoissonArrivals,
    resolve_arrival,
)
from .harness import (
    ADMIT_REJECTED,
    COMPLETED,
    FAILED,
    SHED,
    LoadRun,
    LoadTarget,
    RemoteTarget,
    RequestOutcome,
    SessionTarget,
    generate_trace,
    run_trace,
)
from .scenarios import (
    SCENARIO_REGISTRY,
    BiometricScenario,
    DatabaseScenario,
    DnaScenario,
    ReadMapperScenario,
    Scenario,
    ScenarioRegistry,
    ScenarioRequest,
    ScenarioSpec,
    UnknownScenarioError,
)
from .slo import LoadReport, ScenarioSlo
from .trace import TRACE_VERSION, LoadTrace, TraceEvent

__all__ = [
    "ADMIT_REJECTED",
    "ARRIVAL_PROCESSES",
    "ArrivalProcess",
    "BiometricScenario",
    "BurstyArrivals",
    "COMPLETED",
    "ConstantArrivals",
    "DatabaseScenario",
    "DnaScenario",
    "FAILED",
    "LoadReport",
    "LoadRun",
    "LoadTarget",
    "LoadTrace",
    "PoissonArrivals",
    "ReadMapperScenario",
    "RemoteTarget",
    "RequestOutcome",
    "SCENARIO_REGISTRY",
    "SHED",
    "Scenario",
    "ScenarioRegistry",
    "ScenarioRequest",
    "ScenarioSlo",
    "ScenarioSpec",
    "SessionTarget",
    "TRACE_VERSION",
    "TraceEvent",
    "UnknownScenarioError",
    "generate_trace",
    "resolve_arrival",
    "run_trace",
]
