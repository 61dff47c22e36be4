"""Dies, chips and channels — the parallelism hierarchy of Figure 1.

Dies on a channel operate independently but time-share the channel for
command/data transfer; planes within a die execute latch operations in
lockstep.  The functional simulator exposes every plane; the makespan
helpers tell the performance model how much wall-clock parallelism the
geometry provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from .cell_array import FlashGeometry, Plane
from .energy import EnergyLedger
from .timing import TimingLedger


class Die:
    def __init__(self, geometry: FlashGeometry, timing: TimingLedger, energy: EnergyLedger):
        self.planes = [
            Plane(geometry, timing, energy) for _ in range(geometry.planes_per_die)
        ]


class Channel:
    """One flash channel with its dies (shared command/data bus)."""

    def __init__(self, geometry: FlashGeometry, timing: TimingLedger, energy: EnergyLedger):
        self.dies = [
            Die(geometry, timing, energy) for _ in range(geometry.dies_per_channel)
        ]
        self.geometry = geometry

    def planes(self) -> Iterator[Plane]:
        for die in self.dies:
            yield from die.planes


@dataclass
class FlashArray:
    """The full NAND subsystem: channels -> dies -> planes.

    A single shared timing/energy ledger accumulates the *serial* cost
    of operations; :meth:`parallel_makespan` converts a per-plane
    operation cost into wall-clock time given the geometry's
    parallelism (all planes execute latch µ-ops concurrently; DMA
    serializes per channel).
    """

    geometry: FlashGeometry = field(default_factory=FlashGeometry)

    def __post_init__(self) -> None:
        self.timing = TimingLedger()
        self.energy = EnergyLedger()
        self.channels = [
            Channel(self.geometry, self.timing, self.energy)
            for _ in range(self.geometry.channels)
        ]

    def planes(self) -> List[Plane]:
        out: List[Plane] = []
        for channel in self.channels:
            out.extend(channel.planes())
        return out

    def plane(self, index: int) -> Plane:
        return self.planes()[index]
