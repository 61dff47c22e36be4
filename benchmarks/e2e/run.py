"""The repo benchmark: four served-search workloads, end to end.

Two ways to run it, one code path:

``python3 benchmarks/e2e/run.py --seed 11 --out seed.json``
    every workload, count-bound: 3 interleaved repeats of the fixed
    request lists plus one traced repeat each; prints every metric by
    name with its unit, writes the ledger row and the spans, exits
    non-zero on a wrong answer, an accounting imbalance or a leak.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, time-bound (the ``BENCHMARK.json`` contract): 3
    repeats share ``S`` seconds; the last stdout line is one JSON object
    with the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``, whose middle repeat is traced).

See README.md in this directory for every name printed here.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"error: {SRC / 'repro'} not found: run from a checkout of the repo")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from loadgen import Driver, Probe, Sample, host_speed  # noqa: E402

REPEATS = 3
SPAWN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


# -- targets -----------------------------------------------------------------


def _vm_hwm_mib(pid: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def _report_counters(report: Optional[dict]) -> Dict[str, float]:
    """What the last ``ServeReport`` says: cumulative cache counters and
    the device model's makespan of that batch, per query in it (the open
    loop's last batch may be one request or two coalesced ones)."""
    if report is None:
        return {"cache_hits": 0, "cache_misses": 0, "cache_evictions": 0,
                "modeled_makespan": 0.0}
    cache = report["cache"]
    return {
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "cache_evictions": cache["evictions"],
        "modeled_makespan": report["modeled_makespan"] / len(report["reports"]),
    }


class InprocTarget:
    """``repro.open_session`` in this process; no repro.net anywhere."""

    def __init__(self, spec: workloads.Spec, seed: int, trace_path=None):
        import repro
        from repro.he import BFVParams

        self.spawn_s = self.listen_s = 0.0
        self.began = time.perf_counter()
        self.session = repro.open_session(
            "bfv-sharded", params=BFVParams.paper(), num_shards=spec.shards,
            key_seed=seed,
        )
        self.outsource = self.session.outsource
        self.search = self.session.search
        self.search_batch = self.session.search_batch

    def counters(self) -> Dict[str, float]:
        report = self.session.engine.last_serve_report
        return _report_counters(None if report is None else report.to_dict())

    def rss_mib(self) -> float:
        return _vm_hwm_mib("self")

    def close(self) -> List[str]:
        self.session.close()
        return []


class TcpTarget:
    """The service in a child process, reached through ``repro.net.Client``."""

    def __init__(self, spec: workloads.Spec, seed: int, trace_path=None):
        from repro.net import Client

        self.trace_path = trace_path
        command = [
            sys.executable, str(HERE / "server_main.py"),
            "--shards", str(spec.shards), "--key-seed", str(seed),
        ]
        if trace_path is not None:
            command += ["--trace", str(trace_path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SPAWN_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("server child did not report ready")
            hello = json.loads(line)
            self.spawn_s = time.perf_counter() - started
            self.listen_s = hello["listen_s"]
            self.began = time.perf_counter()
            self.client = Client(
                ("127.0.0.1", hello["port"]), pool_size=spec.connections
            )
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.outsource = self.client.outsource
        self.search = self.client.search
        self.search_batch = self.client.search_batch
        self.submit = self.client.submit

    def counters(self) -> Dict[str, float]:
        stats = self.client.stats()
        report = json.loads(stats.report_json) if stats.report_json else None
        return {
            **_report_counters(report),
            "accepted": stats.accepted,
            "shed": stats.shed,
            "failed": stats.failed,
            "admit_rejected": stats.admit_rejected,
        }

    def rss_mib(self) -> float:
        return _vm_hwm_mib(str(self.proc.pid))

    def close(self) -> List[str]:
        """Drain the child; returns the wrap targets it could not find."""
        self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            tail, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server child did not drain on SIGTERM")
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited {self.proc.returncode}")
        if self.trace_path is None:
            return []
        return json.loads(tail.strip().splitlines()[-1])["targets_missing"]


# -- one repeat --------------------------------------------------------------


@dataclass
class Repeat:
    traced: bool
    samples: List[Sample]
    setup_s: float
    spawn_s: float
    rss_mib: float
    expansion_x: float
    #: delta of the program's own counters over the measured window
    counters: Dict[str, float]
    #: queries / Hom-Adds / variants summed over the right answers
    answered: Dict[str, int]
    #: the generator's host-speed probes
    probes: List[Probe] = field(default_factory=list)
    #: open loop: requests unanswered one latency limit after the last due time
    backlog_at_end: int = 0
    spans: List[tracing.Span] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)

    def measured(self) -> List[Sample]:
        return [s for s in self.samples if s.phase == "measured" and s.op.is_search]

    def of_kind(self, kind: str) -> List[Sample]:
        return [s for s in self.samples if s.op.kind == kind]

    @property
    def window(self) -> Tuple[float, float]:
        """The measured interval: first op issued (or due) to last answer."""
        picked = [s for s in self.samples if s.phase == "measured"]
        return (
            min(s.t0 if s.due is None else s.due for s in picked),
            max(s.t1 for s in picked),
        )

    @property
    def wall_s(self) -> float:
        lo, hi = self.window
        return hi - lo

    @property
    def probing_s(self) -> float:
        """Time the generator spent on probes inside the measured interval."""
        lo, hi = self.window
        return sum(p.t1 - p.t0 for p in self.probes if lo <= p.t0 and p.t1 <= hi)

    @property
    def speed(self) -> float:
        """The host's speed during this repeat (1.0: the reference host).
        An end-to-end time is host time multiplied by it."""
        return host_speed(self.probes)


def run_repeat(
    inputs: workloads.Inputs, index: int, *, seconds: Optional[float],
    traced: bool, out_dir: pathlib.Path,
) -> Repeat:
    """Repeat number ``index`` of one workload: a whole life cycle of
    the service, count-bound without ``seconds``."""
    spec = inputs.spec
    tcp = spec.transport == "tcp"
    tracer = server_trace = None
    if traced:
        tracer = tracing.Tracer("c")
        tracer.install(t for t in tracing.TARGETS if t.net == tcp)
        if tcp:
            out_dir.mkdir(parents=True, exist_ok=True)
            server_trace = out_dir / f"spans-server-{spec.name}.jsonl"
    target = (TcpTarget if tcp else InprocTarget)(spec, inputs.seed, server_trace)
    driver = Driver(target, inputs.dbs, tracer)
    try:
        for op in inputs.setup:
            driver.call(op, "setup")
        driver.settle()
        firsts = [s for s in driver.samples if s.op.is_search]
        if any(s.outcome != "ok" for s in firsts):
            raise RuntimeError("a set-up search was not answered correctly")
        setup_s = target.listen_s + (firsts[0].t1 - target.began)
        for op in inputs.warmup:
            driver.call(op, "warmup")
        before = target.counters()
        if spec.loop == "open":
            driver.open_loop(inputs.ops, workloads.schedule(inputs, index, seconds))
        else:
            driver.closed_loop(inputs.ops, seconds)
        after = target.counters()
        rss_mib = target.rss_mib()
    finally:
        missing = target.close()
        if tracer is not None:
            tracer.uninstall()
    driver.settle()
    repeat = Repeat(
        traced=traced,
        samples=driver.samples,
        setup_s=setup_s,
        spawn_s=target.spawn_s,
        rss_mib=rss_mib,
        expansion_x=driver.encrypted_db_bytes / (spec.db_bits / 8),
        counters={
            key: after[key] - (0 if key == "modeled_makespan" else before[key])
            for key in after
        },
        answered=driver.answered,
        probes=driver.probes,
    )
    if spec.loop == "open":
        cutoff = max(s.due for s in repeat.measured()) + spec.slo_ms / 1e3
        repeat.backlog_at_end = sum(
            1 for s in repeat.measured() if s.outcome != "ok" or s.t1 > cutoff
        )
    if tracer is not None:
        repeat.spans = list(tracer.spans)
        repeat.missing = tracer.missing + missing
        if server_trace is not None:  # merged into out/spans-<workload>.jsonl later
            repeat.spans += tracing.load_spans(server_trace)
            server_trace.unlink()
    return repeat


# -- aggregation ---------------------------------------------------------------


def end_to_end(spec: workloads.Spec, repeats: Sequence[Repeat]) -> Dict[str, dict]:
    """The ten end-to-end metrics over the untraced repeats: the median
    over repeats for rates and sizes, percentiles and shares over the
    pooled samples.  Every row keeps its per-repeat values.

    Times are **reference-host** times: each repeat's host times are
    multiplied by the host speed its probes measured (``Repeat.speed``),
    rates divided by it.  ``load.raw_*`` carry what this host took."""

    def median_of(pick) -> Tuple[float, List[float]]:
        values = [pick(r) for r in repeats]
        return statistics.median(values), values

    def pooled(pick, stat) -> Tuple[float, List[float]]:
        lists = [pick(r) for r in repeats]
        return stat([x for xs in lists for x in xs]), [stat(xs) for xs in lists]

    def answered_ms(r: Repeat) -> List[float]:
        return [
            s.latency_ms * r.speed for s in r.measured()
            if s.outcome in ("ok", "mismatch")
        ]

    def within_slo(r: Repeat) -> List[bool]:
        return [
            s.outcome == "ok" and s.latency_ms * r.speed <= spec.slo_ms
            for s in r.measured()
        ]

    def reference_rate(r: Repeat) -> float:
        done = sum(s.queries_ok for s in r.measured())
        if spec.loop == "open":  # the schedule's rate, whatever the host's speed
            return done / r.wall_s
        return done / (r.wall_s - r.probing_s) / r.speed

    def p(pct: float):
        return lambda values: metrics.percentile(values, pct)

    def kind_ms(kind: str):
        return lambda r: [s.latency_ms * r.speed for s in r.of_kind(kind)]

    rows = {
        "qps": median_of(reference_rate),
        "latency_ms_p50": pooled(answered_ms, p(50)),
        "latency_ms_p90": pooled(answered_ms, p(90)),
        "slo_share": pooled(within_slo, statistics.mean),
        "fail_share": pooled(
            lambda r: [s.outcome != "ok" for s in r.measured()], statistics.mean
        ),
        "setup_s": median_of(lambda r: r.setup_s * r.speed),
        # a high-water mark only grows: in one process for all repeats,
        # only the first is that repeat's own
        "server_rss_mib": median_of(lambda r: r.rss_mib)
        if spec.transport == "tcp" else (repeats[0].rss_mib, [repeats[0].rss_mib]),
        "db_expansion_x": median_of(lambda r: r.expansion_x),
        # every outsource / first search of the run, set-up and warm-up included
        "outsource_ms_p50": pooled(kind_ms("outsource"), p(50)),
        "first_search_ms_p50": pooled(kind_ms("first"), p(50)),
    }
    return {
        m.name: (
            {"value": rows[m.name][0], "unit": m.unit,
             **metrics.summarize(rows[m.name][1])}
            if m.only in (None, spec.name)
            else {"value": None, "unit": m.unit, "na": f"{m.only} only"}
        )
        for m in metrics.END_TO_END
    }


def per_layer(
    spec: workloads.Spec, untraced: Sequence[Repeat], traced: Sequence[Repeat],
    e2e: Dict[str, dict],
) -> Tuple[Dict[str, dict], Optional[metrics.Waterfall]]:
    """Free counters over the untraced repeats plus, when a traced
    repeat ran, the span-derived metrics and the waterfall.  A metric
    whose layer is not on the workload's path reads 0.  Times here are
    this host's, not normalized."""
    samples = [s for r in untraced for s in r.measured()]
    outcomes = [s.outcome for s in samples]

    def counter(key: str) -> float:
        return sum(r.counters.get(key, 0) for r in untraced)

    def answered(key: str) -> float:
        return sum(r.answered[key] for r in untraced) / max(
            1, sum(r.answered["queries"] for r in untraced)
        )

    lookups = counter("cache_hits") + counter("cache_misses")
    values: Dict[str, float] = {
        "load.offered": len(samples),
        "load.completed": sum(o in ("ok", "mismatch") for o in outcomes),
        "load.shed": outcomes.count("shed"),
        "load.admit_rejected": outcomes.count("admit_rejected"),
        "load.failed": outcomes.count("failed"),
        "load.mismatches": outcomes.count("mismatch"),
        "load.lateness_ms_p99": metrics.percentile([s.lateness_ms for s in samples], 99),
        "load.backlog_at_end": sum(r.backlog_at_end for r in untraced),
        "load.latency_ms_p99": metrics.percentile([s.latency_ms for s in samples], 99),
        "load.server_spawn_s": statistics.median(r.spawn_s for r in untraced),
        "load.host_speed": statistics.median(r.speed for r in untraced),
        "load.raw_qps": statistics.median(
            sum(s.queries_ok for s in r.measured())
            / (r.wall_s - (0.0 if spec.loop == "open" else r.probing_s))
            for r in untraced
        ),
        "load.raw_latency_ms_p50": metrics.percentile(
            [s.latency_ms for s in samples if s.outcome in ("ok", "mismatch")], 50
        ),
        "net.server.accepted": counter("accepted"),
        "net.server.shed": counter("shed"),
        "net.server.failed": counter("failed"),
        "net.server.admit_rejected": counter("admit_rejected"),
        "serve.cache.lookups": lookups,
        "serve.cache.hit_ratio": counter("cache_hits") / lookups if lookups else 0.0,
        "serve.cache.evictions": counter("cache_evictions"),
        # modeled, not host, time: the device model's makespan of the
        # last batch served, per query; repeats exactly for a given request
        "serve.scheduler.modeled_makespan_s": untraced[-1].counters["modeled_makespan"],
        "he.hom_adds_per_query": answered("hom_adds"),
        "he.variants_per_query": answered("variants"),
        # computed, not measured: int64 coefficients the fused kernel
        # touches for V variants x P polynomials x n coefficients
        "he.computed_bytes_per_query": (
            answered("variants") * spec.db_polys * workloads.POLY_COEFFS * 8
        ),
    }
    waterfall = None
    if traced:
        run = traced[-1]
        from_spans, waterfall = metrics.layer_metrics_from_spans(
            run.spans, run.window, run.missing
        )
        values.update(from_spans)
        traced_p50 = metrics.percentile(
            [s.latency_ms for s in run.measured() if s.outcome == "ok"], 50
        )
        values["trace.overhead_share"] = (
            traced_p50 * run.speed / e2e["latency_ms_p50"]["value"] - 1.0
        )
    return (
        {
            m.name: {"value": float(values.get(m.name, 0.0)), "unit": m.unit,
                     "moves": m.moves}
            for m in metrics.PER_LAYER
        },
        waterfall,
    )


def gate(name: str, repeats: Sequence[Repeat]) -> List[str]:
    """Correctness and accounting problems of one workload's repeats."""
    terms = ("ok", "mismatch", "shed", "admit_rejected", "failed")
    problems = []
    for index, repeat in enumerate(repeats):
        outcomes = [s.outcome for s in repeat.measured()]
        tally = {o: outcomes.count(o) for o in sorted(set(outcomes))}
        if not outcomes:
            problems.append(f"{name}[{index}]: nothing was measured")
        if sum(tally.get(term, 0) for term in terms) != len(outcomes):
            problems.append(f"{name}[{index}]: accounting does not balance: {tally}")
        if tally.get("ok", 0) != len(outcomes):
            problems.append(f"{name}[{index}]: not every answer was right: {tally}")
    return problems


# -- the run -------------------------------------------------------------------


def host_block() -> dict:
    model = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
    }


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        help="time budget of one workload, shared by its repeats "
                             "(default: count-bound)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: print per-layer metrics from a "
                             "traced repeat (1) or end-to-end metrics (0)")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the full result as JSON")
    parser.add_argument("--plant-error", action="store_true",
                        help="self-test: corrupt one expected answer; the run "
                             "must then exit non-zero")
    args = parser.parse_args(argv)
    contract = args.workload is not None and args.trace is not None
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    out_dir = HERE / "out"
    host = host_block()
    shm_before = _shm_segments()

    inputs = {name: workloads.generate(name, args.seed) for name in names}
    if args.plant_error:
        victim = inputs[names[0]].ops[0]
        object.__setattr__(victim, "expected", ((1,),) * len(victim.keys))

    # Repeats interleave across workloads, so one noisy interval on a
    # shared host hits at most one repeat of each.  The traced repeat is
    # extra in a full run and the middle one under --trace 1.
    if contract:
        plan = [(name, bool(args.trace) and r == 1) for r in range(REPEATS) for name in names]
    else:
        plan = [(name, False) for _ in range(REPEATS) for name in names]
        plan += [(name, True) for name in names]
    seconds = None if args.seconds is None else args.seconds / REPEATS
    done: Dict[str, List[Repeat]] = {name: [] for name in names}
    for name, traced in plan:
        done[name].append(
            run_repeat(inputs[name], len(done[name]), seconds=seconds,
                       traced=traced, out_dir=out_dir)
        )

    problems: List[str] = []
    result = {"schema": 1, "seed": args.seed, "seconds": args.seconds,
              "host": host, "workloads": {}}
    attempted = failed = 0
    for name in names:
        spec = workloads.WORKLOADS[name]
        untraced = [r for r in done[name] if not r.traced]
        traced = [r for r in done[name] if r.traced]
        problems += gate(name, done[name])
        e2e = end_to_end(spec, untraced)
        layers, waterfall = per_layer(spec, untraced, traced, e2e)
        latencies = [s.latency_ms for r in untraced for s in r.measured()]
        tail = metrics.highest_percentile(len(latencies))
        for repeat in done[name]:
            attempted += len(repeat.measured())
            failed += sum(s.outcome != "ok" for s in repeat.measured())
        result["workloads"][name] = {
            "why": spec.why,
            "input_digest": workloads.digest(inputs[name]),
            "latency_samples": len(latencies),
            "latency_tail": {"percentile": tail,
                             "ms": metrics.percentile(latencies, tail or 50)},
            "end_to_end": e2e,
            "per_layer": layers,
        }
        if not contract:
            print(render(name, result["workloads"][name]))
        if traced:
            spans_path = out_dir / f"spans-{name}.jsonl"
            tracing.dump_spans(traced[-1].spans, spans_path)
            print(waterfall.render(f"waterfall {name}"))
            print(f"spans: {spans_path}")

    leaked = _shm_segments() - shm_before
    if leaked:
        problems.append(f"leaked /dev/shm segments: {sorted(leaked)}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    if contract:
        print(json.dumps(contract_line(
            result["workloads"][args.workload], bool(args.trace),
            correct=not problems, attempted=attempted, failed=failed,
        )))
    return 1 if problems else 0


def contract_line(entry: dict, traced: bool, **verdict) -> dict:
    """The BENCHMARK.json result object: the manifest's end-to-end
    metrics, or (traced) its per-layer list, which also holds the
    end-to-end metrics that apply to one workload only."""
    e2e, layers = entry["end_to_end"], entry["per_layer"]
    skipped = metrics.MANIFEST_OMITS + metrics.MANIFEST_DEMOTES
    if traced:
        picked = {**layers, **{name: e2e[name] for name in metrics.MANIFEST_DEMOTES}}
    else:
        picked = {name: row for name, row in e2e.items() if name not in skipped}
    return {
        **verdict,
        "metrics": {
            name: {"value": float(row["value"] or 0.0), "unit": row["unit"]}
            for name, row in picked.items()
        },
    }


def render(name: str, entry: dict) -> str:
    lines = [f"== {name}  ({entry['latency_samples']} pooled latency samples, "
             f"tail p{entry['latency_tail']['percentile']} = "
             f"{entry['latency_tail']['ms']:.2f} ms)"]
    for metric, row in entry["end_to_end"].items():
        if row["value"] is None:
            lines.append(f"  {metric:36} {'n/a':>14} {row['unit']:6} ({row['na']})")
            continue
        lines.append(
            f"  {metric:36} {row['value']:14.4f} {row['unit']:6} "
            f"repeats {row['min']:.4f}..{row['max']:.4f} "
            f"(spread {row['spread'] * 100:.1f}%)"
        )
    for metric, row in entry["per_layer"].items():
        lines.append(f"  {metric:36} {row['value']:14.4f} {row['unit']}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
