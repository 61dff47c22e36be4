"""Open-loop load SLO benchmark over the trace-driven harness.

Boots a loopback :class:`repro.net.ServiceThread` around a 2-shard
``bfv-sharded`` engine with a small per-connection admission bound, then drives the ``database`` scenario
(32-bit exact key lookups from :mod:`repro.load`) through the client
SDK two ways:

* **half rate** — a seeded Poisson trace at ~0.4x the closed-loop
  sustainable rate.  Nothing may shed.
* **overload** — the same scenario at ~5x sustainable.  The admission
  controller must shed, and the accounting must balance *exactly*:
  ``offered == completed + shed`` with zero failures.

The overload trace is saved to disk, reloaded, and re-generated from
the same seed; all three must describe the identical request sequence
(the record/replay guarantee the CI ``load-smoke`` job relies on).

The table reports per-lane offered vs achieved q/s, shed rate and
p50/p95/p99 latency; the same report is written machine-readable to
``benchmarks/out/load_slo.json`` via ``LoadReport.to_json``.  Runs
standalone (``python benchmarks/bench_load.py``) or under pytest.
``--quick`` shrinks the request counts and **exits non-zero if any
gate fails** — the CI bench-smoke gate.

``--tenant-lane`` runs the multi-tenant fair-share lane instead: four
tenants (distinct keypairs/databases/caches) share one service, one
driven hot through a 2-state MMPP burst while three cold tenants
trickle Poisson traffic; each cold tenant's combined p99 must stay
within ``TENANT_P99_RATIO``x its solo (uncontended) baseline, and the
per-tenant STATS rows must partition the global counters.  Artifacts:
``benchmarks/out/tenant_slo.{txt,json}``.

All RNG seeds are pinned (--seed, default 11) so the CI gate replays
the exact same workload on every run.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

from _util import OUT_DIR, emit

from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.he import BFVParams
from repro.load import (
    FAILED,
    SCENARIO_REGISTRY,
    BurstyArrivals,
    LoadReport,
    LoadTrace,
    PoissonArrivals,
    RemoteTarget,
    ScenarioSlo,
    generate_trace,
    run_trace,
)
from repro.net import Client, ServiceThread
from repro.serve import AdmissionController

NUM_SHARDS = 2
MAX_IN_FLIGHT = 16
OVERLOAD_FACTOR = 5.0
HALF_FACTOR = 0.4
#: p99 budget for the resilience lanes: generous against the probed
#: closed-loop latency, floored so scheduler jitter can't fail CI
BUDGET_FACTOR = 25.0
BUDGET_FLOOR_S = 1.0
#: shed + admit-rejected fraction the MMPP burst lane may not exceed
REJECT_RATE_CAP = 0.30
#: multi-tenant lane: cold tenants trickle at this fraction of the
#: sustainable rate while the hot tenant bursts at 1x through an MMPP
TENANT_COLD_FACTOR = 0.3
#: a cold tenant's combined p99 may not exceed this multiple of its
#: solo (uncontended) p99 ...
TENANT_P99_RATIO = 2.0
#: ... floored so scheduler jitter at quick-lane request counts cannot
#: flake CI when the solo baseline is a handful of milliseconds
TENANT_P99_FLOOR_MS = 500.0
#: the hot tenant's private p99 admission budget (seconds): generous
#: against the ~tens-of-ms closed-loop latency, tight enough that a
#: sustained 4x MMPP burst sheds fail-fast instead of queueing into
#: every tenant's tail (admit-rejects stay in the hot lane's 4-term
#: accounting; there is no shed-count gate so CI stays deterministic)
TENANT_HOT_P99_BUDGET_S = 0.25


def _trace_signature(trace: LoadTrace):
    """The replay-relevant content of a trace, comparable across copies."""
    from repro.load.trace import request_to_json

    return [
        (ev.index, ev.at, request_to_json(ev.request), ev.expected)
        for ev in trace.events
    ]


def resilience_lanes(
    scenario_key: str,
    seed: int,
    quick: bool,
    sustainable: float,
    mean_latency: float,
    failures: list,
):
    """The two resilience lanes behind ``benchmarks/out/chaos_slo.*``.

    * **mmpp-burst** — admission-enabled service under a 2-state MMPP
      (4x bursts) at nominal sustainable rate, retrying client.  Gates:
      exact 4-term accounting, zero failures/mismatches, p99 of the
      requests that completed within the admission budget, and a
      combined shed + admit-rejected rate under ``REJECT_RATE_CAP``.
    * **chaos-replay** — a fixed fault schedule (worker crash on shard 1,
      a server shed storm, a client-side connection drop) replayed over
      a Poisson trace.  Every scheduled fault must actually fire.  The
      crash is terminal for the batch it hits — the requests the session
      dispatcher had coalesced at that moment, at least one and at most
      ``MAX_IN_FLIGHT`` — so that many requests fail with the crash as
      their error and nothing else may fail; the retrying client must
      finish everything else with zero oracle mismatches.
    """
    n_burst = 40 if quick else 120
    n_chaos = 40 if quick else 100
    budget = max(BUDGET_FLOOR_S, BUDGET_FACTOR * mean_latency)
    retry = RetryPolicy(max_attempts=4, seed=seed)

    # -- mmpp-burst lane --------------------------------------------------
    scenario = SCENARIO_REGISTRY.create(scenario_key, seed=seed)
    with ServiceThread(
        "bfv-sharded",
        params=BFVParams.test_small(64),
        num_shards=NUM_SHARDS,
        key_seed=seed,
        max_in_flight=MAX_IN_FLIGHT,
        admission=AdmissionController(budget),
    ) as service:
        client = Client(service.address, pool_size=1)
        target = RemoteTarget(client, owns_client=True, retry=retry)
        try:
            scenario.check(target.capabilities, target.describe())
            target.outsource(scenario.db_bits())
            target.submit(
                generate_trace(
                    scenario, PoissonArrivals(), 50.0, max_requests=1
                ).events[0].request,
                None,
            ).result()  # warm the shard arenas
            trace_burst = generate_trace(
                scenario, BurstyArrivals(), sustainable, max_requests=n_burst
            )
            slo_burst = ScenarioSlo.from_run(
                trace_burst, run_trace(trace_burst, target)
            )
        finally:
            target.close()

    if not slo_burst.balanced:
        failures.append(
            f"mmpp-burst: offered {slo_burst.offered} != completed "
            f"{slo_burst.completed} + shed {slo_burst.shed} + admit_rejected "
            f"{slo_burst.admit_rejected} + failed {slo_burst.failed}"
        )
    if slo_burst.failed:
        failures.append(f"mmpp-burst: {slo_burst.failed} request(s) failed")
    if slo_burst.mismatches:
        failures.append(
            f"mmpp-burst: {slo_burst.mismatches} oracle mismatch(es)"
        )
    if slo_burst.p99_ms > budget * 1e3:
        failures.append(
            f"mmpp-burst: p99 {slo_burst.p99_ms:.0f} ms over the "
            f"{budget * 1e3:.0f} ms admission budget"
        )
    if slo_burst.reject_rate >= REJECT_RATE_CAP:
        failures.append(
            f"mmpp-burst: shed+admit-reject rate {slo_burst.reject_rate:.0%} "
            f">= {REJECT_RATE_CAP:.0%} cap"
        )

    # -- chaos-replay lane ------------------------------------------------
    scenario = SCENARIO_REGISTRY.create(scenario_key, seed=seed)
    chaos_plan = (
        FaultPlan()
        .worker_crash(2, shard=1)
        .shed_storm(n_chaos // 3, count=3)
        .connection_drop(n_chaos // 2, side="client")
    )
    client_injector = FaultInjector(chaos_plan)
    with ServiceThread(
        "bfv-sharded",
        params=BFVParams.test_small(64),
        num_shards=NUM_SHARDS,
        key_seed=seed,
        max_in_flight=MAX_IN_FLIGHT,
        admission=AdmissionController(budget),
        fault_plan=chaos_plan,
    ) as service:
        client = Client(service.address, pool_size=1)
        target = RemoteTarget(client, owns_client=True, retry=retry)
        try:
            target.outsource(scenario.db_bits())
            trace_chaos = generate_trace(
                scenario, PoissonArrivals(), sustainable, max_requests=n_chaos
            )
            run_chaos = run_trace(
                trace_chaos, target, injector=client_injector
            )
            slo_chaos = ScenarioSlo.from_run(trace_chaos, run_chaos)
            server_fired = service.service.fault_injector.summary()
        finally:
            target.close()

    if not slo_chaos.balanced:
        failures.append(
            f"chaos-replay: offered {slo_chaos.offered} != completed "
            f"{slo_chaos.completed} + shed {slo_chaos.shed} + admit_rejected "
            f"{slo_chaos.admit_rejected} + failed {slo_chaos.failed}"
        )
    crashes = sum(
        1 for event in chaos_plan.events if event.kind == "worker_crash"
    )
    if not crashes <= slo_chaos.failed <= crashes * MAX_IN_FLIGHT:
        failures.append(
            f"chaos-replay: {slo_chaos.failed} request(s) failed; "
            f"{crashes} scheduled worker_crash event(s) fail between "
            f"{crashes} and {crashes * MAX_IN_FLIGHT}"
        )
    for outcome in run_chaos.outcomes:
        if outcome.status == FAILED and "worker crash" not in outcome.error:
            failures.append(
                f"chaos-replay: request {outcome.index} failed for a reason "
                f"other than the injected crash: {outcome.error}"
            )
    if slo_chaos.mismatches:
        failures.append(
            f"chaos-replay: {slo_chaos.mismatches} oracle mismatch(es) "
            f"(faults corrupted a served result)"
        )
    fired = dict(server_fired)
    for fault in client_injector.fired:
        fired[fault.event.kind] = fired.get(fault.event.kind, 0) + 1
    for kind in ("worker_crash", "shed_storm", "conn_drop"):
        if not fired.get(kind):
            failures.append(
                f"chaos-replay: scheduled {kind} never fired "
                f"(fired: {fired or 'nothing'})"
            )

    return slo_burst, slo_chaos, budget, fired


def tenant_lanes(scenario_key: str, seed: int, quick: bool, failures: list):
    """The fair-share lane behind ``benchmarks/out/tenant_slo.*``.

    Four tenants share one multi-tenant service (distinct keypairs,
    databases and caches): three cold tenants trickle Poisson traffic
    at ``TENANT_COLD_FACTOR``x sustainable while the hot tenant bursts
    at 1x through a 2-state MMPP.  Each cold tenant first replays its
    trace *alone* to establish a solo baseline.  Gates: exact per-lane
    accounting with zero failures / oracle mismatches, per-tenant STATS
    rows that partition the global counters, and every cold tenant's
    combined p99 within ``TENANT_P99_RATIO``x its solo p99 (floored at
    ``TENANT_P99_FLOOR_MS``) — the fairness-isolation contract.
    """
    import threading

    from repro.tenancy import TenantQuota, TenantRegistry, TenantSpec

    n_probe = 4 if quick else 8
    n_cold = 16 if quick else 50
    n_hot = 48 if quick else 150
    cold_ids = ("cold-a", "cold-b", "cold-c")
    tenant_ids = ("hot",) + cold_ids

    # the hot tenant runs under its own p99 admission budget, so its
    # bursts shed fail-fast instead of queueing into everyone's tail;
    # cold tenants carry no budget (their trickle never needs one)
    specs = [
        TenantSpec(
            tenant_id="hot",
            key_seed=41,
            quota=TenantQuota(p99_budget=TENANT_HOT_P99_BUDGET_S),
        )
    ] + [TenantSpec.parse(f"{t}:{42 + i}") for i, t in enumerate(cold_ids)]
    registry = TenantRegistry(
        specs,
        params=BFVParams.test_small(64),
        num_shards=NUM_SHARDS,
        global_cache_bytes=8 << 20,
    )
    scenarios = {
        t: SCENARIO_REGISTRY.create(scenario_key, seed=seed + i)
        for i, t in enumerate(tenant_ids)
    }
    solo_p99 = {}
    lanes = {}
    drive_errors = []
    try:
        with ServiceThread(tenants=registry) as service:
            targets = {
                t: RemoteTarget(
                    Client(service.address, pool_size=1, tenant=t),
                    owns_client=True,
                )
                for t in tenant_ids
            }
            try:
                target_desc = targets["hot"].describe()
                for t, target in targets.items():
                    target.outsource(scenarios[t].db_bits())

                # closed-loop probe on the hot tenant: sustainable rate
                probe = [
                    ev.request
                    for ev in generate_trace(
                        scenarios["hot"],
                        PoissonArrivals(),
                        100.0,
                        max_requests=n_probe + 1,
                    ).events
                ]
                hot = targets["hot"]
                hot.submit(probe[0], None).result()  # warm the shard arenas
                t0 = time.perf_counter()
                for request in probe[1:]:
                    hot.submit(request, None).result()
                sustainable = n_probe / (time.perf_counter() - t0)

                traces = {
                    t: generate_trace(
                        scenarios[t],
                        PoissonArrivals(),
                        TENANT_COLD_FACTOR * sustainable,
                        max_requests=n_cold,
                    )
                    for t in cold_ids
                }
                traces["hot"] = generate_trace(
                    scenarios["hot"],
                    BurstyArrivals(),
                    sustainable,
                    max_requests=n_hot,
                )

                # solo baselines: each cold tenant alone on the service
                for t in cold_ids:
                    slo = ScenarioSlo.from_run(
                        traces[t], run_trace(traces[t], targets[t])
                    )
                    solo_p99[t] = slo.p99_ms

                # combined: the hot tenant bursts while every cold
                # tenant replays the trace it just ran uncontended
                def drive(t):
                    try:
                        lanes[t] = ScenarioSlo.from_run(
                            traces[t], run_trace(traces[t], targets[t])
                        )
                    except BaseException as exc:  # noqa: BLE001
                        drive_errors.append((t, repr(exc)))

                threads = [
                    threading.Thread(target=drive, args=(t,))
                    for t in tenant_ids
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join()
                stats = targets["hot"].stats()
            finally:
                for target in targets.values():
                    target.close()
    finally:
        registry.close_all()

    for t, err in drive_errors:
        failures.append(f"tenant-lane {t}: combined run died: {err}")
    for t in tenant_ids:
        slo = lanes.get(t)
        if slo is None:
            continue  # already reported via drive_errors
        if not slo.balanced:
            failures.append(
                f"tenant-lane {t}: offered {slo.offered} != completed "
                f"{slo.completed} + shed {slo.shed} + admit_rejected "
                f"{slo.admit_rejected} + failed {slo.failed}"
            )
        if slo.failed:
            failures.append(f"tenant-lane {t}: {slo.failed} request(s) failed")
        if slo.mismatches:
            failures.append(
                f"tenant-lane {t}: {slo.mismatches} oracle mismatch(es) "
                f"(cross-tenant result leakage?)"
            )
    rows = dict(stats.get("tenants", {}) or {})
    if set(rows) >= set(tenant_ids):
        if sum(r["completed"] for r in rows.values()) != int(
            stats.get("service_completed", -1) or 0
        ):
            failures.append(
                "tenant-lane: per-tenant STATS rows do not partition the "
                "global completed counter"
            )
    else:
        failures.append(
            f"tenant-lane: STATS missing tenant rows (got {sorted(rows)})"
        )
    for t in cold_ids:
        if t not in lanes or t not in solo_p99:
            continue
        cap = max(TENANT_P99_RATIO * solo_p99[t], TENANT_P99_FLOOR_MS)
        if lanes[t].p99_ms > cap:
            failures.append(
                f"tenant-lane {t}: combined p99 {lanes[t].p99_ms:.0f} ms "
                f"> {cap:.0f} ms cap (solo {solo_p99[t]:.0f} ms x "
                f"{TENANT_P99_RATIO:g}, floor {TENANT_P99_FLOOR_MS:.0f} ms)"
            )
    return lanes, solo_p99, rows, stats, sustainable, target_desc, tenant_ids


def run_tenant(quick: bool, seed: int) -> int:
    """Multi-tenant fair-share gate (``--tenant-lane``)."""
    failures = []
    lanes, solo_p99, rows, stats, sustainable, target_desc, tenant_ids = (
        tenant_lanes("database", seed, quick, failures)
    )
    report = LoadReport(
        target=f"{target_desc} x{len(tenant_ids)} tenants",
        arrival="mmpp(hot)+poisson(cold)",
        rate=sustainable,
        seed=seed,
        scenarios=[
            dataclasses.replace(
                lanes[t],
                scenario=(
                    "hot mmpp@1.0x"
                    if t == "hot"
                    else f"{t} poisson@{TENANT_COLD_FACTOR:.1f}x"
                ),
            )
            for t in tenant_ids
            if t in lanes
        ],
        tenants=rows,
    )
    emit("tenant_slo", report.table())
    payload = report.to_dict()
    payload["solo_p99_ms"] = solo_p99
    payload["p99_ratio_cap"] = TENANT_P99_RATIO
    payload["p99_floor_ms"] = TENANT_P99_FLOOR_MS
    (OUT_DIR / "tenant_slo.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    cold = [t for t in tenant_ids if t != "hot"]
    print(
        f"tenant gate OK: sustainable ~{sustainable:.0f} q/s; hot completed "
        f"{lanes['hot'].completed}/{lanes['hot'].offered} under MMPP burst "
        f"({lanes['hot'].shed + lanes['hot'].admit_rejected} shed/admit-"
        f"rejected by its private budget); "
        + "; ".join(
            f"{t} p99 {lanes[t].p99_ms:.0f} ms (solo {solo_p99[t]:.0f} ms)"
            for t in cold
        )
        + f"; per-tenant accounting partitions "
        f"{int(stats['service_completed'])} completed"
    )
    return 0


def run(quick: bool, seed: int) -> int:
    n_probe = 4 if quick else 8
    n_half = 30 if quick else 80
    n_over = 60 if quick else 150

    scenario = SCENARIO_REGISTRY.create("database", seed=seed)
    failures = []

    with ServiceThread(
        "bfv-sharded",
        params=BFVParams.test_small(64),
        num_shards=NUM_SHARDS,
        key_seed=seed,
        max_in_flight=MAX_IN_FLIGHT,
    ) as service:
        # shedding is per-connection: one socket so the in-flight bound
        # applies to the whole open-loop stream
        client = Client(service.address, pool_size=1)
        target = RemoteTarget(client, owns_client=True)
        try:
            target_desc = target.describe()
            scenario.check(target.capabilities, target_desc)
            target.outsource(scenario.db_bits())

            # -- closed-loop probe: sustainable per-request latency ------
            probe = [
                ev.request
                for ev in generate_trace(
                    scenario, PoissonArrivals(), 100.0, max_requests=n_probe + 1
                ).events
            ]
            target.submit(probe[0], None).result()  # warm the shard arenas
            t0 = time.perf_counter()
            for request in probe[1:]:
                target.submit(request, None).result()
            mean_latency = (time.perf_counter() - t0) / n_probe
            sustainable = 1.0 / mean_latency

            # -- half-rate lane: nothing may shed ------------------------
            rate_lo = HALF_FACTOR * sustainable
            trace_lo = generate_trace(
                scenario, PoissonArrivals(), rate_lo, max_requests=n_half
            )
            slo_lo = ScenarioSlo.from_run(trace_lo, run_trace(trace_lo, target))

            # -- overload lane: admission control must shed --------------
            rate_hi = OVERLOAD_FACTOR * sustainable
            trace_hi = generate_trace(
                scenario, PoissonArrivals(), rate_hi, max_requests=n_over
            )
            slo_hi = ScenarioSlo.from_run(trace_hi, run_trace(trace_hi, target))
        finally:
            target.close()

    # -- record/replay: disk copy and fresh generation must be identical --
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / "load_overload_trace.jsonl"
    trace_hi.save(trace_path)
    reloaded = LoadTrace.load(trace_path)
    regenerated = generate_trace(
        SCENARIO_REGISTRY.create("database", seed=seed),
        PoissonArrivals(),
        rate_hi,
        max_requests=n_over,
    )
    if _trace_signature(reloaded) != _trace_signature(trace_hi):
        failures.append("reloaded trace diverged from the recorded one")
    if _trace_signature(regenerated) != _trace_signature(trace_hi):
        failures.append("re-generated trace diverged (seeding is broken)")

    # -- gates ------------------------------------------------------------
    for lane, slo in (("half-rate", slo_lo), ("overload", slo_hi)):
        if not slo.balanced:
            failures.append(
                f"{lane}: offered {slo.offered} != completed {slo.completed}"
                f" + shed {slo.shed} + admit_rejected {slo.admit_rejected}"
                f" + failed {slo.failed}"
            )
        if slo.failed:
            failures.append(f"{lane}: {slo.failed} request(s) failed")
        if slo.mismatches:
            failures.append(
                f"{lane}: {slo.mismatches} result(s) diverged from the "
                f"plaintext oracle"
            )
        if not math.isfinite(slo.p99_ms):
            failures.append(f"{lane}: p99 is not finite")
    if slo_lo.shed:
        failures.append(
            f"half-rate: shed {slo_lo.shed} request(s) at "
            f"{HALF_FACTOR:.1f}x sustainable (admission bound too tight?)"
        )
    if not slo_hi.shed:
        failures.append(
            f"overload: no sheds at {OVERLOAD_FACTOR:.1f}x sustainable "
            f"(admission control never engaged)"
        )

    report = LoadReport(
        target=target_desc,
        arrival="poisson",
        rate=rate_hi,
        seed=seed,
        scenarios=[
            dataclasses.replace(slo_lo, scenario="database @0.4x"),
            dataclasses.replace(slo_hi, scenario="database @5x"),
        ],
    )
    emit("load_slo", report.table())
    (OUT_DIR / "load_slo.json").write_text(report.to_json() + "\n")

    # -- resilience lanes: MMPP burst + seeded chaos replay ---------------
    slo_burst, slo_chaos, budget, fired = resilience_lanes(
        "database", seed, quick, sustainable, mean_latency, failures
    )
    chaos_report = LoadReport(
        target=target_desc,
        arrival="bursty+poisson",
        rate=sustainable,
        seed=seed,
        scenarios=[
            dataclasses.replace(slo_burst, scenario="database mmpp-burst"),
            dataclasses.replace(slo_chaos, scenario="database chaos-replay"),
        ],
    )
    emit("chaos_slo", chaos_report.table())
    chaos_json = chaos_report.to_dict()
    chaos_json["p99_budget_seconds"] = budget
    chaos_json["faults_fired"] = fired
    (OUT_DIR / "chaos_slo.json").write_text(
        json.dumps(chaos_json, indent=2) + "\n"
    )

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(
        f"load gate OK: sustainable ~{sustainable:.0f} q/s; half-rate "
        f"{slo_lo.completed}/{slo_lo.offered} completed with 0 sheds; "
        f"overload shed {slo_hi.shed}/{slo_hi.offered} "
        f"({slo_hi.shed_rate:.0%}) with exact accounting; trace "
        f"record/replay identical; mmpp-burst p99 {slo_burst.p99_ms:.0f} ms "
        f"within {budget * 1e3:.0f} ms budget at "
        f"{slo_burst.reject_rate:.0%} reject rate; chaos replay fired "
        f"{sum(fired.values())} fault(s), {slo_chaos.failed} request(s) lost "
        f"to the crash"
    )
    return 0


def test_emit_load_slo(benchmark):
    """Pytest entry point (same artifact, quick shape)."""
    benchmark(lambda: None)
    assert run(quick=True, seed=11) == 0


def test_emit_tenant_slo(benchmark):
    """Pytest entry point for the multi-tenant fair-share lane."""
    benchmark(lambda: None)
    assert run_tenant(quick=True, seed=11) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small trace; non-zero exit if shed accounting breaks, the "
        "overload lane never sheds, or the half-rate lane sheds (CI gate)",
    )
    parser.add_argument(
        "--seed", type=int, default=11,
        help="scenario + arrival + key seed (default: 11, pinned so CI "
        "runs are reproducible)",
    )
    parser.add_argument(
        "--tenant-lane", action="store_true",
        help="run only the multi-tenant fair-share lane: 4 tenants on one "
        "service, one hot MMPP burster; writes benchmarks/out/"
        "tenant_slo.{txt,json} and exits non-zero if any cold tenant's "
        f"combined p99 exceeds {TENANT_P99_RATIO:g}x its solo baseline",
    )
    args = parser.parse_args()
    if args.tenant_lane:
        return run_tenant(quick=args.quick, seed=args.seed)
    return run(quick=args.quick, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
