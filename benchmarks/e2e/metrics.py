"""Metric definitions and the arithmetic that produces them.

``END_TO_END`` and ``PER_LAYER`` are the contract: name, unit,
direction, regression bound, and — for a layer metric — which
end-to-end metric it should move on which workload ("none" predictions
included).  ``BENCHMARK.json`` lists the same names; the README carries
the full interaction table.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from tracing import Span, children_of, self_time


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: share of the baseline median the metric may worsen by; absolute
    #: for the two share metrics whose baseline is 1 and 0
    bound: float = 0.0
    moves: str = ""
    #: the one workload the metric applies to (None: all); n/a elsewhere
    only: Optional[str] = None


# Time metrics sit at the contract's ceiling of 25%: the reference host
# drifts by more than the 10% the issue hoped for (README, "Bounds and
# the noise they come from"; evidence in baseline/noise.txt).
END_TO_END: List[Metric] = [
    Metric("qps", "1/s", "higher", 0.25),
    Metric("latency_ms_p50", "ms", "lower", 0.25),
    Metric("latency_ms_p90", "ms", "lower", 0.25),
    Metric("slo_share", "share", "higher", 0.05),
    Metric("fail_share", "share", "lower", 0.0),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("server_rss_mib", "MiB", "lower", 0.20),
    # exactly 4.0 at seed; 0.1% rather than 0 so a bound of zero never
    # has to be divided by or compared with float noise
    Metric("db_expansion_x", "x", "lower", 0.001),
    Metric("outsource_ms_p50", "ms", "lower", 0.25, only="hotset-churn-tcp"),
    Metric("first_search_ms_p50", "ms", "lower", 0.25, only="hotset-churn-tcp"),
]

#: What BENCHMARK.json can hold of the ten.  The driver contract wants
#: every bounded metric non-zero and steady (interquartile spread of ten
#: runs within the bound) on every workload.  ``fail_share`` is 0 at
#: seed; the contract line's failed/attempted carry it.  The two
#: churn-only metrics apply to one workload, and ``latency_ms_p90`` does
#: not hold 25% in a 24-second run (27-32% on the open loop's ~190
#: arrivals, 24% on the scan's ~60 samples, where fewer than ten lie
#: beyond it): the issue's rule demotes such a metric, so these are
#: listed under ``per_layer`` — recorded by the driver, not bounded, 0
#: where they do not apply.  ``slo_share`` is the bounded tail guard.
MANIFEST_OMITS = ("fail_share",)
MANIFEST_DEMOTES = ("latency_ms_p90", "outsource_ms_p50", "first_search_ms_p50")

#: metrics whose bound is an absolute difference, not a share of the median
ABSOLUTE_BOUND = {"slo_share", "fail_share"}

_L = "lookup-tcp-closed"
_O = "lookup-tcp-open"
_S = "scan-inproc-closed"
_C = "hotset-churn-tcp"

PER_LAYER: List[Metric] = [
    # load: the generator itself; validity of the open loop, no e2e movement
    Metric("load.offered", "count", "higher", moves="none (validity)"),
    Metric("load.completed", "count", "higher", moves="none (validity)"),
    Metric("load.shed", "count", "lower", moves=f"slo_share, fail_share on {_O}"),
    Metric("load.admit_rejected", "count", "lower", moves=f"slo_share, fail_share on {_O}"),
    Metric("load.failed", "count", "lower", moves="fail_share on all"),
    Metric("load.mismatches", "count", "lower", moves="fail_share on all"),
    Metric("load.lateness_ms_p99", "ms", "lower", moves=f"none (validity of {_O})"),
    Metric("load.backlog_at_end", "count", "lower", moves=f"none (validity of {_O})"),
    Metric("load.latency_ms_p99", "ms", "lower", moves="diagnostic: too few samples beyond it"),
    Metric("load.server_spawn_s", "s", "lower", moves="none (interpreter start is outside setup_s)"),
    Metric("load.host_speed", "x", "higher", moves="none: the host, not the program; end-to-end times are host time x this"),
    Metric("load.raw_qps", "1/s", "higher", moves="qps before normalizing: qps x host_speed"),
    Metric("load.raw_latency_ms_p50", "ms", "lower", moves="latency_ms_p50 before normalizing: latency_ms_p50 / host_speed"),
    # net
    Metric("net.codec.encode_request_us", "us", "lower", moves=f"latency_ms_p50 on {_L} (<1%); none on {_S}"),
    Metric("net.codec.decode_request_us", "us", "lower", moves=f"latency_ms_p50 on {_L} (<1%); none on {_S}"),
    Metric("net.codec.encode_result_us", "us", "lower", moves=f"latency_ms_p50 on {_L} (<1%); none on {_S}"),
    Metric("net.codec.decode_result_us", "us", "lower", moves=f"latency_ms_p50 on {_L} (<1%); none on {_S}"),
    Metric("net.request_bytes", "B", "lower", moves=f"none at loopback; none on {_S}"),
    Metric("net.response_bytes", "B", "lower", moves=f"none at loopback; none on {_S}"),
    Metric("net.overhead_ms_p50", "ms", "lower", moves=f"latency_ms_p50 on {_L} (few %); none on {_S}"),
    Metric("net.server.accepted", "count", "higher", moves="none (accounting)"),
    Metric("net.server.shed", "count", "lower", moves=f"slo_share on {_O}"),
    Metric("net.server.failed", "count", "lower", moves="fail_share on tcp workloads"),
    Metric("net.server.admit_rejected", "count", "lower", moves=f"slo_share on {_O}"),
    # api
    Metric("api.session.queue_wait_ms_p50", "ms", "lower", moves=f"latency_ms_p90, slo_share on {_O}; none on 1-client closed loops"),
    Metric("api.session.requests_per_execute", "ratio", "higher", moves=f"latency_ms_p90, qps on {_O}; 1.0 on closed loops"),
    Metric("api.engine.execute_self_ms", "ms", "lower", moves="latency_ms_p50 on all (small)"),
    # serve
    Metric("serve.engine.search_batch_ms", "ms", "lower", moves="latency_ms_p50, qps on all"),
    Metric("serve.engine.search_batch_self_ms", "ms", "lower", moves=f"latency_ms_p50 on {_L}"),
    Metric("serve.engine.thread_starts_per_query", "count", "lower", moves=f"latency_ms_p50 on {_L}; little on {_S}"),
    Metric("serve.engine.adopt_database_ms", "ms", "lower", moves=f"outsource_ms_p50 on {_C}; setup_s"),
    Metric("serve.cache.lookups", "count", "higher", moves="none (denominator)"),
    Metric("serve.cache.hit_ratio", "share", "higher", moves=f"latency, qps on {_C}; ~none on {_S}; little on lookup-*"),
    Metric("serve.cache.evictions", "count", "lower", moves="lookup-* miss path"),
    Metric("serve.cache.get_or_create_ms", "ms", "lower", moves="latency_ms_p50 on lookup-*; first_search_ms_p50"),
    Metric("serve.scheduler.simulate_ms", "ms", "lower", moves=f"qps, latency_ms_p50 on all, most on {_S}"),
    Metric("serve.scheduler.simulate_calls", "count", "lower", moves="as simulate_ms"),
    Metric("serve.scheduler.io_requests_per_query", "count", "lower", moves="simulate_ms; exact counter"),
    Metric("serve.scheduler.modeled_makespan_s", "s", "lower", moves="none: modeled time, must repeat exactly"),
    Metric("serve.scheduler.host_us_per_sim_event", "us", "lower", moves="simulate_ms"),
    # ssd
    Metric("ssd.queueing.run_ms", "ms", "lower", moves="child of serve.scheduler.simulate; same targets"),
    Metric("ssd.queueing.events", "count", "lower", moves="run_ms; exact counter"),
    # core
    Metric("core.client.prepare_query_ms", "ms", "lower", moves="latency_ms_p50 on all (small)"),
    Metric("core.query.encrypt_variant_ms", "ms", "lower", moves="first_search_ms_p50; miss-path latency_ms_p50 on lookup-*"),
    Metric("core.query.encrypt_variant_calls", "count", "lower", moves="encrypt_variant_ms"),
    Metric("core.client.decode_flags_ms", "ms", "lower", moves="latency_ms_p50 on all"),
    Metric("core.client.outsource_ms", "ms", "lower", moves="outsource_ms_p50, setup_s; none on steady latency"),
    # he
    Metric("he.arena.db_phases_ms", "ms", "lower", moves=f"first_search_ms_p50 on {_C} (first touch); latency on {_S}"),
    Metric("he.arena.query_phases_ms", "ms", "lower", moves=f"latency_ms_p50, qps on {_S}"),
    Metric("he.arena.decrypt_flags_ms", "ms", "lower", moves=f"latency_ms_p50, qps on {_S}"),
    Metric("he.hom_adds_per_query", "count", "lower", moves="exact counter; kernel work"),
    Metric("he.variants_per_query", "count", "lower", moves="exact counter; hom_adds = variants x polys"),
    Metric("he.computed_bytes_per_query", "B", "lower", moves="computed as V*P*n*8, not measured"),
    # trace: the instrument
    Metric("trace.overhead_share", "share", "lower", moves="none: traced vs untraced latency_ms_p50"),
    Metric("trace.unattributed_share", "share", "lower", moves="none: client latency inside no wrapped function"),
    Metric("trace.targets_missing", "count", "lower", moves="none: wrap targets a refactor removed"),
]


# -- percentiles -------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(values, pct)) if len(values) else 0.0


def highest_percentile(
    num_samples: int, candidates: Sequence[float] = (50, 90, 95, 99, 99.9)
) -> Optional[float]:
    """The highest candidate with at least ten samples beyond it."""
    ok = [p for p in candidates if round(num_samples * (100 - p) / 100, 6) >= 10]
    return max(ok) if ok else None


def spread(values: Sequence[float]) -> float:
    """(max - min) / median of the per-repeat values."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


# -- spans -> per-layer numbers ----------------------------------------------

ROOT = "load.request"
CLIENT_SUBMIT = "net.client.submit"
SERVER_SUBMIT = "api.session.submit"
#: slack when checking that a joined server span lies inside its client span
JOIN_SLACK_S = 1e-3


def join_processes(spans: List[Span]) -> None:
    """Link the two processes' spans into request trees, in place.

    A server ``Session.submit`` span becomes the child of the client
    ``Client.submit`` span with the same ordinal when it lies inside it;
    any other parentless span is adopted by the one client submit span
    that encloses it (none or several: it stays an orphan)."""
    carriers = sorted(
        (s for s in spans if s.name == CLIENT_SUBMIT), key=lambda s: s.t0
    )
    by_ordinal = {s.ordinal: s for s in carriers}
    starts = [s.t0 for s in carriers]
    for span in spans:
        if span.parent is not None or span.name in (ROOT, CLIENT_SUBMIT):
            continue
        if span.name == SERVER_SUBMIT:
            carrier = by_ordinal.get(span.ordinal)
            if carrier is not None and _inside(span, carrier):
                span.parent = carrier.id
            continue
        upto = bisect.bisect_right(starts, span.t0)
        enclosing = [c for c in carriers[max(0, upto - 8) : upto] if _inside(span, c)]
        if len(enclosing) == 1:
            span.parent = enclosing[0].id
            span.ordinal = enclosing[0].ordinal


def _inside(inner: Span, outer: Span) -> bool:
    return (
        inner.t0 >= outer.t0 - JOIN_SLACK_S and inner.t1 <= outer.t1 + JOIN_SLACK_S
    )


@dataclass
class Waterfall:
    #: (span name, calls per request, self ms per call p50, self ms per
    #: request, share of client latency), largest share first
    rows: List[Tuple[str, float, float, float, float]]
    requests: int
    client_ms: float

    def render(self, title: str) -> str:
        lines = [
            f"{title}: {self.requests} requests, mean client latency "
            f"{self.client_ms:.2f} ms",
            f"  {'span':34} {'calls/req':>9} {'self ms/call p50':>17} "
            f"{'self ms/req':>12} {'share':>7}",
        ]
        for name, calls, per_call, per_request, share in self.rows:
            lines.append(
                f"  {name:34} {calls:9.2f} {per_call:17.3f} "
                f"{per_request:12.3f} {share * 100:6.1f}%"
            )
        return "\n".join(lines)


def layer_metrics_from_spans(
    spans: List[Span], window: Tuple[float, float], missing: Sequence[str]
) -> Tuple[Dict[str, float], Waterfall]:
    """The traced (✱) per-layer metrics and the waterfall of one
    traced repeat.  ``_ms`` figures are mean milliseconds per measured
    search request (so stages add up), ``_us`` codec figures are per
    call, and ``_p50`` figures are medians over joined requests."""
    join_processes(spans)
    kids = children_of(spans)
    roots = [s for s in spans if s.name == ROOT and s.attrs.get("measured")]
    # a root span opens just before the generator reads its own clock
    lo = min([window[0]] + [r.t0 for r in roots])
    hi = window[1]
    requests = max(1, len(roots))
    queries = max(1, int(sum(r.attrs.get("queries", 1) for r in roots)))
    client_total = sum(r.duration for r in roots) or 1.0

    inside: Dict[str, List[Span]] = {}
    everywhere: Dict[str, List[Span]] = {}
    for span in spans:
        everywhere.setdefault(span.name, []).append(span)
        if lo <= span.t0 <= hi and (span.name != ROOT or span.attrs.get("measured")):
            inside.setdefault(span.name, []).append(span)

    def total(name: str, attr: Optional[str] = None) -> float:
        picked = inside.get(name, ())
        if attr is None:
            return sum(s.duration for s in picked)
        return sum(s.attrs.get(attr, 0) for s in picked)

    def calls(name: str) -> int:
        return len(inside.get(name, ()))

    def self_total(name: str) -> float:
        return sum(self_time(s, kids.get(s.id, ())) for s in inside.get(name, ()))

    def per_request_ms(name: str) -> float:
        return total(name) / requests * 1e3

    def per_call(name: str, scale: float, pool: Dict[str, List[Span]]) -> float:
        picked = pool.get(name, ())
        return sum(s.duration for s in picked) / len(picked) * scale if picked else 0.0

    def mean_attr(name: str, attr: str) -> float:
        return total(name, attr) / calls(name) if calls(name) else 0.0

    joined = [
        (carrier, server)
        for carrier in inside.get(CLIENT_SUBMIT, ())
        for server in kids.get(carrier.id, ())
        if server.name == SERVER_SUBMIT
    ]
    waits = [
        (s.attrs["execute_t0"] - s.t0) * 1e3
        for s in inside.get(SERVER_SUBMIT, ())
        if "execute_t0" in s.attrs
    ]
    executes = [s for s in inside.get("api.engine.execute", ()) if s.attrs.get("served")]
    sim_events = total("ssd.queueing.run", "events")
    unattributed = self_total(ROOT) + self_total(CLIENT_SUBMIT)

    values = {
        "net.codec.encode_request_us": per_call("net.codec.encode_request", 1e6, inside),
        "net.codec.decode_request_us": per_call("net.codec.decode_request", 1e6, inside),
        "net.codec.encode_result_us": per_call("net.codec.encode_result", 1e6, inside),
        "net.codec.decode_result_us": per_call("net.codec.decode_result", 1e6, inside),
        "net.request_bytes": mean_attr("net.codec.encode_request", "bytes"),
        "net.response_bytes": mean_attr("net.codec.encode_result", "bytes"),
        "net.overhead_ms_p50": percentile(
            [(c.duration - s.duration) * 1e3 for c, s in joined], 50
        ),
        "api.session.queue_wait_ms_p50": percentile(waits, 50),
        "api.session.requests_per_execute": (
            sum(s.attrs["served"] for s in executes) / len(executes) if executes else 0.0
        ),
        "api.engine.execute_self_ms": self_total("api.engine.execute") / requests * 1e3,
        "serve.engine.search_batch_ms": per_request_ms("serve.engine.search_batch"),
        "serve.engine.search_batch_self_ms": (
            self_total("serve.engine.search_batch") / requests * 1e3
        ),
        "serve.engine.thread_starts_per_query": (
            total("serve.engine.search_batch", "thread_starts")
            / max(1, total("serve.engine.search_batch", "queries"))
        ),
        "serve.engine.adopt_database_ms": per_call(
            "serve.engine.adopt_database", 1e3, everywhere
        ),
        "serve.cache.get_or_create_ms": per_request_ms("serve.cache.get_or_create"),
        "serve.scheduler.simulate_ms": per_request_ms("serve.scheduler.simulate"),
        "serve.scheduler.simulate_calls": calls("serve.scheduler.simulate") / requests,
        "serve.scheduler.io_requests_per_query": (
            total("serve.scheduler.simulate", "io_requests") / queries
        ),
        "serve.scheduler.host_us_per_sim_event": (
            total("serve.scheduler.simulate") * 1e6 / sim_events if sim_events else 0.0
        ),
        "ssd.queueing.run_ms": per_request_ms("ssd.queueing.run"),
        "ssd.queueing.events": sim_events / queries,
        "core.client.prepare_query_ms": per_request_ms("core.client.prepare_query"),
        "core.query.encrypt_variant_ms": per_request_ms("core.query.encrypt_variant"),
        "core.query.encrypt_variant_calls": calls("core.query.encrypt_variant") / queries,
        "core.client.decode_flags_ms": per_request_ms("core.client.decode_flags"),
        "core.client.outsource_ms": per_call("core.client.outsource", 1e3, everywhere),
        "he.arena.db_phases_ms": per_request_ms("he.arena.db_phases"),
        "he.arena.query_phases_ms": per_request_ms("he.arena.query_phases"),
        "he.arena.decrypt_flags_ms": per_request_ms("he.arena.decrypt_flags"),
        "trace.unattributed_share": unattributed / client_total,
        "trace.targets_missing": float(len(set(missing))),
    }

    rows = []
    for name, picked in inside.items():
        selfs = [self_time(s, kids.get(s.id, ())) for s in picked]
        rows.append((
            name,
            len(picked) / requests,
            percentile(selfs, 50) * 1e3,
            sum(selfs) / requests * 1e3,
            sum(selfs) / client_total,
        ))
    rows.sort(key=lambda row: -row[4])
    return values, Waterfall(rows, len(roots), client_total / requests * 1e3)


def summarize(values: Iterable[float]) -> Dict[str, float]:
    values = list(values)
    return {
        "per_repeat": values,
        "min": min(values),
        "max": max(values),
        "spread": spread(values),
    }
