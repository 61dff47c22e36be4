"""Event-driven queueing simulator for the CIPHERMATCH SSD.

The analytic models in :mod:`repro.ndp.perfmodel` compute batch
makespans from closed-form equations; this module complements them with
a discrete-event simulation of the SSD's two contended resources —

* **channels**: the shared command/data buses (dies on one channel
  time-interleave their transfers, §2.3), and
* **dies**: the units that execute flash operations independently,

so request streams with skewed placement, mixed op types, or bursty
arrivals produce the queueing delays the closed forms abstract away.
Each request is a little pipeline of (resource, duration) phases:

* ``READ``:      die busy ``t_read`` -> channel busy (page out)
* ``PROGRAM``:   channel busy (page in) -> die busy ``t_program``
* ``CM_SEARCH``: channel busy (query in) -> die busy (bop_add for
  ``word_bits`` bit positions) -> channel busy (sum page out)

Phases acquire resources in order; a phase starts at the max of the
request's readiness and the resource's availability (non-preemptive
FCFS per resource, matching the FTL's in-order per-die scheduling).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..flash.cell_array import FlashGeometry
from ..flash.timing import FlashTimings


class RequestKind(Enum):
    READ = "read"
    PROGRAM = "program"
    CM_SEARCH = "cm-search"


@dataclass
class IoRequest:
    """One SSD command targeting a specific (channel, die)."""

    kind: RequestKind
    channel: int
    die: int
    arrival: float = 0.0
    pages: int = 1
    tag: Optional[str] = None

    # filled by the simulator
    start: float = field(default=0.0, init=False)
    finish: float = field(default=0.0, init=False)

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass
class SimulationResult:
    """Completion statistics of one simulated request stream."""

    requests: List[IoRequest]
    makespan: float
    channel_busy: Dict[int, float]
    die_busy: Dict[Tuple[int, int], float]

    @property
    def mean_latency(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.latency for r in self.requests) / len(self.requests)

    def die_utilization(self, channel: int, die: int) -> float:
        if self.makespan == 0:
            return 0.0
        return self.die_busy.get((channel, die), 0.0) / self.makespan


class SsdQueueingSimulator:
    """Discrete-event simulation of channel/die contention."""

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timings: Optional[FlashTimings] = None,
        word_bits: int = 32,
    ):
        self.geometry = geometry or FlashGeometry()
        self.timings = timings or FlashTimings()
        self.word_bits = word_bits
        self._pending: List[Tuple[float, int, IoRequest]] = []
        self._seq = 0

    # -- workload construction ---------------------------------------------

    def submit(self, request: IoRequest) -> None:
        if not 0 <= request.channel < self.geometry.channels:
            raise ValueError(f"channel {request.channel} out of range")
        if not 0 <= request.die < self.geometry.dies_per_channel:
            raise ValueError(f"die {request.die} out of range")
        heapq.heappush(self._pending, (request.arrival, self._seq, request))
        self._seq += 1

    def submit_many(self, requests: List[IoRequest]) -> None:
        for request in requests:
            self.submit(request)

    # -- phase decomposition ---------------------------------------------

    def _phases(self, req: IoRequest) -> List[Tuple[str, float]]:
        """(resource, duration) pipeline for one request; resource is
        ``"channel"`` or ``"die"``."""
        t = self.timings
        transfer = req.pages * t.page_transfer_time()
        if req.kind is RequestKind.READ:
            return [("die", req.pages * t.t_read_slc), ("channel", transfer)]
        if req.kind is RequestKind.PROGRAM:
            return [("channel", transfer), ("die", req.pages * t.t_program_slc)]
        # CM_SEARCH: broadcast the query page(s), run the bit-serial
        # adder for word_bits positions, stream the sum page(s) out.
        bop = self.word_bits * t.t_bop_add
        return [("channel", transfer), ("die", bop), ("channel", transfer)]

    # -- engine ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute every submitted request; the simulator drains its
        queue, so back-to-back ``run`` calls simulate separate epochs.

        The event loop operates at *phase* granularity: a request only
        occupies a resource while its current phase runs, so another
        request's phase can slot into the gap (e.g. die 1's query
        broadcast proceeds while die 0 is busy with ``bop_add``).
        Phases are committed in ready-time order, non-preemptively.
        """
        channel_free: Dict[int, float] = {}
        die_free: Dict[Tuple[int, int], float] = {}
        channel_busy: Dict[int, float] = {}
        die_busy: Dict[Tuple[int, int], float] = {}
        done: List[IoRequest] = []
        makespan = 0.0

        # (ready_time, seq, request, phases, phase_index); seq keeps the
        # heap stable and preserves submission order among simultaneous
        # ready times (the FTL's FCFS).  A request's phase list travels
        # with its events, so it is built once, not once per phase.
        events: List[Tuple[float, int, IoRequest, List[Tuple[str, float]], int]] = [
            (arrival, seq, req, self._phases(req), 0)
            for arrival, seq, req in self._pending
        ]
        self._pending.clear()
        heapq.heapify(events)
        next_seq = self._seq

        while events:
            ready, _, req, phases, phase_idx = heapq.heappop(events)
            resource, duration = phases[phase_idx]
            if resource == "channel":
                start = max(ready, channel_free.get(req.channel, 0.0))
                channel_free[req.channel] = start + duration
                channel_busy[req.channel] = (
                    channel_busy.get(req.channel, 0.0) + duration
                )
            else:
                dkey = (req.channel, req.die)
                start = max(ready, die_free.get(dkey, 0.0))
                die_free[dkey] = start + duration
                die_busy[dkey] = die_busy.get(dkey, 0.0) + duration
            finish = start + duration
            if phase_idx == 0:
                req.start = start
            if phase_idx + 1 < len(phases):
                heapq.heappush(
                    events, (finish, next_seq, req, phases, phase_idx + 1)
                )
                next_seq += 1
            else:
                req.finish = finish
                makespan = max(makespan, finish)
                done.append(req)

        return SimulationResult(
            requests=done,
            makespan=makespan,
            channel_busy=channel_busy,
            die_busy=die_busy,
        )


def cm_search_wave(
    geometry: FlashGeometry,
    slots: int,
    arrival: float = 0.0,
    pages_per_slot: int = 1,
) -> List[IoRequest]:
    """Build the request stream for one CM-search wave over ``slots``
    vertical slots, striped round-robin across (channel, die) the way
    the FTL allocates the CIPHERMATCH region."""
    requests = []
    pairs = geometry.channels * geometry.dies_per_channel
    for slot in range(slots):
        pair = slot % pairs
        requests.append(
            IoRequest(
                kind=RequestKind.CM_SEARCH,
                channel=pair % geometry.channels,
                die=pair // geometry.channels,
                arrival=arrival,
                pages=pages_per_slot,
                tag=f"slot-{slot}",
            )
        )
    return requests


def simulate_cm_search(
    slots: int,
    geometry: Optional[FlashGeometry] = None,
    timings: Optional[FlashTimings] = None,
    word_bits: int = 32,
) -> SimulationResult:
    """Makespan of a ``slots``-slot CM-search under full contention
    modelling — the queueing cross-check for
    ``SSDController.cm_search_parallel`` and the CM-IFP closed form."""
    geometry = geometry or FlashGeometry()
    sim = SsdQueueingSimulator(geometry, timings, word_bits)
    sim.submit_many(cm_search_wave(geometry, slots))
    return sim.run()
