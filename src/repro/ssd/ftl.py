"""Flash translation layer with the CIPHERMATCH dual-region design
(§4.3.2 item 1).

The physical address space is partitioned into:

* a **conventional region** — TLC mode, horizontal layout, ordinary
  read/write;
* a **CIPHERMATCH region** — SLC mode, vertical layout; writes pass
  through the transposition unit, reads from the host require reading
  ``word_bits`` wordlines and transposing back (the long-latency page
  fault path the paper handles with huge pages + timeouts).

Each region has its own logical-to-physical mapping table.  Physical
pages are striped channel-first so consecutive logical pages maximize
channel/die/plane parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..flash.cell_array import FlashGeometry


class Region(Enum):
    CONVENTIONAL = "conventional"
    CIPHERMATCH = "ciphermatch"


@dataclass(frozen=True)
class PhysicalAddress:
    channel: int
    die: int
    plane: int
    block: int
    wordline: int

    def plane_index(self, geometry: FlashGeometry) -> int:
        """Flat plane index used by :class:`repro.flash.chip.FlashArray`."""
        per_channel = geometry.dies_per_channel * geometry.planes_per_die
        return (
            self.channel * per_channel
            + self.die * geometry.planes_per_die
            + self.plane
        )


class MappingTable:
    """One region's L2P map."""

    def __init__(self) -> None:
        self._map: Dict[int, PhysicalAddress] = {}

    def lookup(self, lpn: int) -> Optional[PhysicalAddress]:
        return self._map.get(lpn)

    def bind(self, lpn: int, ppa: PhysicalAddress) -> None:
        self._map[lpn] = ppa

    def __len__(self) -> int:
        return len(self._map)


class FlashTranslationLayer:
    """Dual-region FTL with striped physical allocation.

    The CIPHERMATCH region allocates at *slot* granularity: one slot is
    ``word_bits`` wordlines of one block (a full vertical operand
    group).  The conventional region allocates single wordlines.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        ciphermatch_fraction: float = 0.5,
        word_bits: int = 32,
    ):
        if not 0.0 < ciphermatch_fraction < 1.0:
            raise ValueError("ciphermatch_fraction must be in (0, 1)")
        self.geometry = geometry
        self.word_bits = word_bits
        self.tables = {Region.CONVENTIONAL: MappingTable(), Region.CIPHERMATCH: MappingTable()}
        # Blocks [0, boundary) belong to the CIPHERMATCH region of every
        # plane; [boundary, blocks_per_plane) to the conventional region.
        self.block_boundary = max(1, int(geometry.blocks_per_plane * ciphermatch_fraction))
        self._next_slot = 0
        self._next_conventional = 0

    # -- allocation ---------------------------------------------------------

    def slots_per_block(self) -> int:
        return self.geometry.wordlines_per_block // self.word_bits

    def total_ciphermatch_slots(self) -> int:
        return self.geometry.total_planes * self.block_boundary * self.slots_per_block()

    def allocate_ciphermatch_slot(self, lpn: int) -> PhysicalAddress:
        """Allocate the next vertical slot, striped channel-first."""
        if self._next_slot >= self.total_ciphermatch_slots():
            raise RuntimeError("CIPHERMATCH region full")
        ppa = self._slot_address(self._next_slot)
        self._next_slot += 1
        self.tables[Region.CIPHERMATCH].bind(lpn, ppa)
        return ppa

    def _slot_address(self, slot: int) -> PhysicalAddress:
        g = self.geometry
        plane_flat = slot % g.total_planes
        per_plane_slot = slot // g.total_planes
        block = per_plane_slot // self.slots_per_block()
        slot_in_block = per_plane_slot % self.slots_per_block()

        per_channel = g.dies_per_channel * g.planes_per_die
        channel = plane_flat // per_channel
        die = (plane_flat % per_channel) // g.planes_per_die
        plane = plane_flat % g.planes_per_die

        return PhysicalAddress(
            channel=channel,
            die=die,
            plane=plane,
            block=block,
            wordline=slot_in_block * self.word_bits,
        )

    def release_ciphermatch_region(self) -> List[PhysicalAddress]:
        """Unbind every CIPHERMATCH page and allocate from slot 0 again.
        Returns the slots handed out so far; the caller erases their
        blocks before anything is programmed there again."""
        used = [self._slot_address(slot) for slot in range(self._next_slot)]
        self.tables[Region.CIPHERMATCH] = MappingTable()
        self._next_slot = 0
        return used

    def allocate_conventional(self, lpn: int) -> PhysicalAddress:
        g = self.geometry
        conventional_blocks = g.blocks_per_plane - self.block_boundary
        total = g.total_planes * conventional_blocks * g.wordlines_per_block
        if self._next_conventional >= total:
            raise RuntimeError("conventional region full")
        idx = self._next_conventional
        self._next_conventional += 1

        plane_flat = idx % g.total_planes
        rest = idx // g.total_planes
        block = self.block_boundary + rest // g.wordlines_per_block
        wordline = rest % g.wordlines_per_block

        per_channel = g.dies_per_channel * g.planes_per_die
        ppa = PhysicalAddress(
            channel=plane_flat // per_channel,
            die=(plane_flat % per_channel) // g.planes_per_die,
            plane=plane_flat % g.planes_per_die,
            block=block,
            wordline=wordline,
        )
        self.tables[Region.CONVENTIONAL].bind(lpn, ppa)
        return ppa

    def lookup(self, region: Region, lpn: int) -> Optional[PhysicalAddress]:
        return self.tables[region].lookup(lpn)
