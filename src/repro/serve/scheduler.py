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

This module is the device model and nothing else: placement and replay
are functions of ``(geometry, timings, word_bits)``, no mutable state.
What a front end sheds or rejects never reaches the device and is
counted where it happens (the service, and that tenant's accounting row).
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

    def placement(self, shard_id: int) -> Tuple[int, int]:
        """(channel, die) for a shard: distinct channels first, so shards
        contend on the shared buses only once channels are exhausted."""
        pairs = self.geometry.channels * self.geometry.dies_per_channel
        slot = shard_id % pairs
        return slot % self.geometry.channels, slot // self.geometry.channels

    def simulate(
        self, traces: List[ShardTaskTrace], ciphertext_bytes: int
    ) -> SimulationResult:
        """Replay executed tasks through the discrete-event simulator.
        Every task of a batch enters the model's queue at t = 0: the
        device model must not inherit the Python driver's pacing.

        ``ciphertext_bytes`` is the serialized size of one result
        ciphertext (sets the page count streamed per Hom-Add).
        """
        sim = SsdQueueingSimulator(self.geometry, self.timings, self.word_bits)
        pages = max(1, -(-ciphertext_bytes // self.timings.page_bytes))
        for trace in traces:
            channel, die = self.placement(trace.shard_id)
            for _ in range(trace.hom_adds):
                sim.submit(
                    IoRequest(
                        kind=RequestKind.CM_SEARCH,
                        channel=channel,
                        die=die,
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
