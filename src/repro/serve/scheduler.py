"""Maps executed serving work onto the SSD queueing model.

The sharded engine gives the *functional* result of a batch; this
module supplies the *performance* view.  Every (query, shard) task the
engine executed is replayed as a stream of ``CM_SEARCH`` requests — one
per Hom-Add, exactly the traffic the paper's CM-IFP device would see —
through :class:`repro.ssd.queueing.SsdQueueingSimulator`, with each
shard pinned to its own (channel, die) pair the way the FTL stripes the
CIPHERMATCH region.  The resulting :class:`SimulationResult` yields the
modeled batch makespan, per-shard utilization, and per-query modeled
latency that :class:`repro.serve.report.ServeReport` surfaces.

The replay is not on the request path: ``search_batch`` only records
the traces, and :class:`repro.serve.report.ModelReplay` — the one
caller of :meth:`ServeScheduler.simulate` — runs it when a modeled
figure of the report is first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..flash.cell_array import FlashGeometry
from ..flash.timing import FlashTimings
from ..ssd.queueing import (
    IoRequest,
    RequestKind,
    SimulationResult,
    SsdQueueingSimulator,
)


@dataclass(frozen=True)
class ShardTaskTrace:
    """Record of one executed (query, shard) task."""

    query_index: int
    shard_id: int
    hom_adds: int
    #: submission time relative to batch start (wall clock, seconds);
    #: used as the request arrival so bursty submission shows up as
    #: queueing delay in the model.
    submitted_at: float = 0.0


class ServeScheduler:
    """Places shards on SSD resources and replays task traces."""

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timings: Optional[FlashTimings] = None,
        word_bits: int = 32,
    ):
        self.geometry = geometry or FlashGeometry()
        self.timings = timings or FlashTimings()
        self.word_bits = word_bits
        #: queries dropped by a serving front end's admission control
        #: (e.g. repro.net oldest-deadline shedding) — work the device
        #: model never saw, accounted here so capacity planning can
        #: compare executed vs offered load.
        self.sheds = 0
        #: queries rejected fail-fast by the adaptive admission
        #: controller (ERR_ADMIT) — distinct from queue-pressure sheds:
        #: these were never admitted, so no queue slot or deadline was
        #: ever consumed on their behalf.
        self.admit_rejected = 0
        #: per-tenant breakdown of the two counters above, keyed by the
        #: tenant id the front end recorded them under ("" is the
        #: default tenant).  Summing a column across tenants always
        #: reproduces the global counter.
        self.tenant_counters: Dict[str, Dict[str, int]] = {}

    def _tenant_row(self, tenant: str) -> Dict[str, int]:
        return self.tenant_counters.setdefault(
            tenant, {"sheds": 0, "admit_rejected": 0}
        )

    def record_shed(self, count: int = 1, tenant: str = "") -> None:
        """Account ``count`` admission-control rejections."""
        self.sheds += count
        self._tenant_row(tenant)["sheds"] += count

    def record_admit_rejected(self, count: int = 1, tenant: str = "") -> None:
        """Account ``count`` fail-fast admission rejections."""
        self.admit_rejected += count
        self._tenant_row(tenant)["admit_rejected"] += count

    def placement(self, shard_id: int) -> Tuple[int, int]:
        """(channel, die) for a shard: distinct channels first, so shards
        contend on the shared buses only once channels are exhausted."""
        pairs = self.geometry.channels * self.geometry.dies_per_channel
        slot = shard_id % pairs
        return slot % self.geometry.channels, slot // self.geometry.channels

    def _pages_per_hom_add(self, ciphertext_bytes: int) -> int:
        return max(1, -(-ciphertext_bytes // self.timings.page_bytes))

    def simulate(
        self, traces: List[ShardTaskTrace], ciphertext_bytes: int
    ) -> SimulationResult:
        """Replay executed tasks through the discrete-event simulator.

        ``ciphertext_bytes`` is the serialized size of one result
        ciphertext (sets the page count streamed per Hom-Add).
        """
        sim = SsdQueueingSimulator(self.geometry, self.timings, self.word_bits)
        pages = self._pages_per_hom_add(ciphertext_bytes)
        for trace in traces:
            channel, die = self.placement(trace.shard_id)
            for _ in range(trace.hom_adds):
                sim.submit(
                    IoRequest(
                        kind=RequestKind.CM_SEARCH,
                        channel=channel,
                        die=die,
                        arrival=trace.submitted_at,
                        pages=pages,
                        tag=f"q{trace.query_index}",
                    )
                )
        return sim.run()

    @staticmethod
    def per_query_latency(result: SimulationResult) -> Dict[int, float]:
        """Modeled latency per query: last request completion minus first
        arrival, keyed by the query index encoded in the request tag."""
        finish: Dict[int, float] = {}
        arrival: Dict[int, float] = {}
        for req in result.requests:
            if not req.tag or not req.tag.startswith("q"):
                continue
            q = int(req.tag[1:])
            finish[q] = max(finish.get(q, 0.0), req.finish)
            arrival[q] = min(arrival.get(q, req.arrival), req.arrival)
        return {q: finish[q] - arrival[q] for q in finish}
