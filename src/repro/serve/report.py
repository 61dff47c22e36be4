"""Serving metrics: throughput, latency percentiles, shard utilization.

:class:`ServeReport` is what :meth:`ShardedSearchEngine.search_batch`
returns — the per-query :class:`~repro.core.pipeline.SearchReport` list
(so correctness consumers see exactly what the sequential pipeline would
produce) plus the operational metrics a serving deployment watches.  The
tables render through :mod:`repro.eval.tables` so serving output matches
the paper-figure reproductions.

The *modeled* figures (makespan, per-query latency, per-shard
utilization) are an analysis of the batch, not part of serving it: the
engine hands the report a :class:`ModelReplay` holding the batch's task
traces, and the discrete-event replay runs once, the first time any of
those figures is read — by ``python -m repro serve``, a bench table, or
a STATS frame's ``report_json`` — never on the request path.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.matcher import MatchCandidate
from ..core.pipeline import SearchReport
from ..eval.tables import format_bytes, format_table
from ..utils.stats import percentile
from .cache import CacheStats
from .scheduler import ServeScheduler, ShardTaskTrace

#: schema guard for the machine-readable serialization
SERVE_REPORT_VERSION = 1


class ModelReplay:
    """The CM-IFP device model of one served batch, run when first read.

    Holds what :meth:`ServeScheduler.simulate` needs — the batch's
    (job, shard) task traces, the result-ciphertext size and, per input
    query, the index of the distinct job that served it — and replays
    them once, under a lock, the first time :meth:`makespan`,
    :meth:`latencies` or :meth:`utilization` is called; concurrent first
    readers all see that one replay.  Only the derived figures are kept
    afterwards, not the traces or the simulated requests.

    Traces are replayed in ``(query_index, shard_id)`` order, whatever
    order they were recorded in: the simulator breaks ready-time ties
    by submission order, so on shards that share a channel the modeled
    figures would otherwise depend on how the host ran the tasks.
    """

    def __init__(
        self,
        scheduler: ServeScheduler,
        traces: Sequence[ShardTaskTrace],
        ciphertext_bytes: int,
        job_of_query: Sequence[int],
    ):
        self._lock = threading.Lock()
        self._pending: Optional[tuple] = (
            scheduler,
            sorted(traces, key=lambda t: (t.query_index, t.shard_id)),
            ciphertext_bytes,
            list(job_of_query),
        )
        self._makespan = 0.0
        self._latencies: Dict[int, float] = {}
        self._utilization: Dict[Tuple[int, int], float] = {}

    def _replayed(self) -> "ModelReplay":
        with self._lock:
            if self._pending is not None:
                scheduler, traces, ciphertext_bytes, job_of_query = self._pending
                sim = scheduler.simulate(traces, ciphertext_bytes)
                per_job = scheduler.per_query_latency(sim)
                self._makespan = sim.makespan
                # Expand per distinct job -> per input query (duplicates
                # share a job), so wall and modeled percentiles weight
                # queries equally.
                self._latencies = {
                    i: per_job.get(job, 0.0) for i, job in enumerate(job_of_query)
                }
                self._utilization = {
                    key: sim.die_utilization(*key) for key in sim.die_busy
                }
                self._pending = None
        return self

    def makespan(self) -> float:
        return self._replayed()._makespan

    def latencies(self) -> Dict[int, float]:
        """Modeled latency keyed by input-query position."""
        return self._replayed()._latencies

    def utilization(self, channel: int, die: int) -> float:
        """Busy fraction of the makespan for one die (0.0 for a die no
        trace touched, e.g. a degraded shard's)."""
        return self._replayed()._utilization.get((channel, die), 0.0)


class _OnRead:
    """Dataclass field that may be given a zero-argument callable in
    place of its value; the callable runs at the first read and its
    result takes its place.  A plain value is stored and returned as is,
    so reports built with explicit numbers (tests, :meth:`from_dict`)
    never call anything.

    Used as the field's class-level default, which is how dataclasses
    take a descriptor: ``_OnRead()`` leaves the field required,
    ``_OnRead(0.0)`` defaults it to ``0.0`` and ``_OnRead(dict)`` to a
    fresh ``{}`` per instance (the default is itself a callable).
    """

    def __init__(self, *default):
        self._default = default

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            if self._default:
                return self._default[0]
            raise AttributeError(self._name)
        value = obj.__dict__[self._name]
        if callable(value):
            # Racing first readers each store the same result: the
            # callable is a memoized ModelReplay accessor.
            value = obj.__dict__[self._name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self._name] = value


@dataclass
class ShardStats:
    """Work and occupancy accounting for one shard."""

    shard_id: int
    channel: int
    die: int
    num_polynomials: int
    hom_adds: int
    tasks_executed: int
    busy_seconds: float
    #: fraction of the modeled makespan the shard's die was busy (the
    #: engine passes a :class:`ModelReplay` accessor, resolved on read)
    modeled_utilization: float = _OnRead()
    #: circuit-breaker state at batch end ("closed" / "open" / "half-open")
    breaker: str = "closed"

    def wall_utilization(self, wall_seconds: float) -> float:
        return self.busy_seconds / wall_seconds if wall_seconds > 0 else 0.0


@dataclass
class ServeReport:
    """Outcome + operational metrics of one served query batch."""

    #: per-input-query search reports (duplicates share one object)
    reports: List[SearchReport]
    num_shards: int
    wall_seconds: float
    #: per-query wall latency: batch start -> all shard work merged
    latencies: List[float]
    deduplicated_hits: int
    cache: CacheStats
    shards: List[ShardStats] = field(default_factory=list)
    #: discrete-event queueing model of the same batch on CM-IFP shards
    #: (from the engine: a :class:`ModelReplay` accessor, resolved the
    #: first time it is read)
    modeled_makespan: float = _OnRead(0.0)
    #: modeled latency per input query (keyed by batch position, so the
    #: population matches :attr:`latencies` duplicate-for-duplicate);
    #: resolved on first read like :attr:`modeled_makespan`
    modeled_latencies: Dict[int, float] = _OnRead(dict)
    encrypted_db_bytes: int = 0
    #: shards that contributed nothing to this batch (circuit breaker
    #: open / injected worker crash under partial-results mode)
    degraded_shards: List[int] = field(default_factory=list)
    #: tenant id the serving engine ran under ("" = single-tenant)
    tenant: str = ""

    # -- aggregate correctness counters ---------------------------------

    @property
    def num_queries(self) -> int:
        return len(self.reports)

    @property
    def total_hom_additions(self) -> int:
        return sum(r.hom_additions for r in self.reports)

    @property
    def total_matches(self) -> int:
        return sum(r.num_matches for r in self.reports)

    def matches_per_query(self) -> List[List[int]]:
        return [r.matches for r in self.reports]

    # -- throughput / latency ------------------------------------------

    @property
    def throughput_qps(self) -> float:
        return self.num_queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def modeled_throughput_qps(self) -> float:
        if self.modeled_makespan <= 0:
            return 0.0
        return self.num_queries / self.modeled_makespan

    def latency_percentile(self, pct: float) -> float:
        return percentile(self.latencies, pct)

    def modeled_latency_percentile(self, pct: float) -> float:
        return percentile(list(self.modeled_latencies.values()), pct)

    # -- rendering ------------------------------------------------------

    def summary_table(self) -> str:
        rows = [
            *([("tenant", self.tenant)] if self.tenant else []),
            ("queries", self.num_queries),
            ("matches", self.total_matches),
            ("Hom-Adds", self.total_hom_additions),
            ("deduplicated", self.deduplicated_hits),
            ("shards", self.num_shards),
            (
                "degraded shards",
                ",".join(map(str, self.degraded_shards)) or "none",
            ),
            ("encrypted DB", format_bytes(self.encrypted_db_bytes)),
            ("wall time", f"{self.wall_seconds * 1e3:.1f} ms"),
            ("throughput", f"{self.throughput_qps:.1f} q/s"),
            ("p50 / p95 / p99 latency", self._latency_cell(self.latency_percentile)),
            ("modeled makespan", f"{self.modeled_makespan * 1e3:.2f} ms"),
            ("modeled throughput", f"{self.modeled_throughput_qps:.1f} q/s"),
            (
                "modeled p50 / p95 / p99",
                self._latency_cell(self.modeled_latency_percentile),
            ),
            ("cache hit rate", f"{self.cache.hit_rate * 100:.1f}%"),
            (
                "cache size",
                f"{self.cache.size}/{self.cache.capacity} "
                f"({self.cache.evictions} evicted)",
            ),
        ]
        return format_table(
            "serving batch report",
            ("metric", "value"),
            [list(r) for r in rows],
            paper_note="Fig. 9/12 batch workloads served by sharded CM backends",
        )

    def _latency_cell(self, pctl) -> str:
        return (
            f"{pctl(50) * 1e3:.2f} / {pctl(95) * 1e3:.2f} / "
            f"{pctl(99) * 1e3:.2f} ms"
        )

    # -- machine-readable artifact ---------------------------------------

    def to_dict(self) -> Dict:
        """Plain-JSON-types dict: the full report, per-shard stats
        included (bench artifacts + the STATS frame's ``report_json``
        field)."""
        return {
            "version": SERVE_REPORT_VERSION,
            "reports": [
                {
                    "matches": list(r.matches),
                    "candidates": [asdict(c) for c in r.candidates],
                    "hom_additions": r.hom_additions,
                    "num_variants": r.num_variants,
                    "encrypted_db_bytes": r.encrypted_db_bytes,
                    "degraded_shards": list(r.degraded_shards),
                }
                for r in self.reports
            ],
            "num_shards": self.num_shards,
            "wall_seconds": self.wall_seconds,
            "latencies": list(self.latencies),
            "deduplicated_hits": self.deduplicated_hits,
            "cache": {
                "capacity": self.cache.capacity,
                "size": self.cache.size,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "current_bytes": self.cache.current_bytes,
                "max_bytes": self.cache.max_bytes,
            },
            "shards": [asdict(s) for s in self.shards],
            "modeled_makespan": self.modeled_makespan,
            "modeled_latencies": {
                str(k): v for k, v in self.modeled_latencies.items()
            },
            "encrypted_db_bytes": self.encrypted_db_bytes,
            "degraded_shards": list(self.degraded_shards),
            "tenant": self.tenant,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, obj: Dict) -> "ServeReport":
        version = int(obj.get("version", -1))
        if version != SERVE_REPORT_VERSION:
            raise ValueError(
                f"serve report version {version} unsupported "
                f"(this build reads {SERVE_REPORT_VERSION})"
            )
        reports = [
            SearchReport(
                matches=list(r["matches"]),
                candidates=[
                    MatchCandidate(**c) for c in r.get("candidates", [])
                ],
                hom_additions=int(r["hom_additions"]),
                num_variants=int(r["num_variants"]),
                encrypted_db_bytes=int(r["encrypted_db_bytes"]),
                degraded_shards=tuple(
                    int(s) for s in r.get("degraded_shards", ())
                ),
            )
            for r in obj["reports"]
        ]
        cache = obj["cache"]
        # older artifacts carry keys that are gone (before 4.0:
        # "executor", "num_workers", "queue_depth_*", per-shard
        # "restarts" / "alive"; before 9.0: "sheds", "admit_rejected");
        # skip them
        shard_fields = set(ShardStats.__dataclass_fields__)
        return cls(
            reports=reports,
            num_shards=int(obj["num_shards"]),
            wall_seconds=float(obj["wall_seconds"]),
            latencies=[float(v) for v in obj["latencies"]],
            deduplicated_hits=int(obj["deduplicated_hits"]),
            cache=CacheStats(
                capacity=int(cache["capacity"]),
                size=int(cache["size"]),
                hits=int(cache["hits"]),
                misses=int(cache["misses"]),
                evictions=int(cache["evictions"]),
                current_bytes=int(cache.get("current_bytes", 0)),
                max_bytes=(
                    int(cache["max_bytes"])
                    if cache.get("max_bytes") is not None
                    else None
                ),
            ),
            shards=[
                ShardStats(**{k: v for k, v in s.items() if k in shard_fields})
                for s in obj.get("shards", [])
            ],
            modeled_makespan=float(obj["modeled_makespan"]),
            modeled_latencies={
                int(k): float(v)
                for k, v in obj.get("modeled_latencies", {}).items()
            },
            encrypted_db_bytes=int(obj["encrypted_db_bytes"]),
            degraded_shards=[
                int(s) for s in obj.get("degraded_shards", [])
            ],
            tenant=obj.get("tenant", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "ServeReport":
        return cls.from_dict(json.loads(text))

    def shard_table(self) -> str:
        rows = []
        for s in self.shards:
            rows.append(
                [
                    s.shard_id,
                    f"ch{s.channel}/die{s.die}",
                    s.num_polynomials,
                    s.tasks_executed,
                    s.hom_adds,
                    f"{s.wall_utilization(self.wall_seconds) * 100:.0f}%",
                    f"{s.modeled_utilization * 100:.0f}%",
                    s.breaker,
                ]
            )
        return format_table(
            "per-shard utilization",
            (
                "shard",
                "placement",
                "polys",
                "tasks",
                "hom-adds",
                "wall util",
                "modeled util",
                "breaker",
            ),
            rows,
        )
