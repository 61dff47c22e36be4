"""NAND flash structural model (Figure 1): strings, blocks, planes.

A block is modelled as a wordline x bitline bit matrix; a plane holds
many blocks sharing one set of bitlines (and hence one latch set).  The
CIPHERMATCH region operates blocks in SLC mode (one reliable bit per
cell via Enhanced SLC Programming); the conventional region uses TLC
mode (three logical pages per wordline).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

import numpy as np

from .energy import EnergyLedger
from .latch import PlaneLatches
from .timing import TimingLedger


class CellMode(Enum):
    SLC = 1  # 1 bit/cell — CIPHERMATCH region (ESP programming)
    MLC = 2
    TLC = 3  # 3 bits/cell — conventional storage region
    QLC = 4


@dataclass(frozen=True)
class FlashGeometry:
    """Organization parameters of the simulated SSD (Table 3)."""

    channels: int = 8
    dies_per_channel: int = 8
    planes_per_die: int = 2
    blocks_per_plane: int = 2048
    wordlines_per_block: int = 196  # 4 x 48 WL layers
    page_bytes: int = 4096

    @property
    def bitlines_per_plane(self) -> int:
        return self.page_bytes * 8

    @property
    def total_planes(self) -> int:
        return self.channels * self.dies_per_channel * self.planes_per_die

    @property
    def parallel_bitlines(self) -> int:
        """Bitlines operating concurrently across the whole SSD."""
        return self.total_planes * self.bitlines_per_plane

    @staticmethod
    def functional(num_bitlines: int = 256, wordlines: int = 64) -> "FlashGeometry":
        """A tiny geometry for functional simulation in tests."""
        return FlashGeometry(
            channels=2,
            dies_per_channel=1,
            planes_per_die=2,
            blocks_per_plane=4,
            wordlines_per_block=wordlines,
            page_bytes=num_bitlines // 8,
        )


class Block:
    """One NAND block: a (wordlines x bitlines) bit matrix.

    Erase-before-program semantics are enforced: programming can only
    clear 1->0 ... in real flash programming sets cells from the erased
    state; here we model the logical constraint that a page must be
    erased before it is re-programmed.
    """

    def __init__(self, wordlines: int, bitlines: int, mode: CellMode = CellMode.SLC):
        self.wordlines = wordlines
        self.bitlines = bitlines
        self.mode = mode
        self.cells = np.zeros((wordlines, bitlines), dtype=np.uint8)
        self.programmed = np.zeros(wordlines, dtype=bool)
        self.erase_count = 0

    def erase(self) -> None:
        self.cells[:] = 0
        self.programmed[:] = False
        self.erase_count += 1

    def program_wordline(self, wl: int, bits: np.ndarray) -> None:
        if self.programmed[wl]:
            raise RuntimeError(
                f"wordline {wl} already programmed; erase the block first"
            )
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.bitlines,):
            raise ValueError(f"expected {self.bitlines} bits, got {bits.shape}")
        self.cells[wl] = bits
        self.programmed[wl] = True

    def read_wordline(self, wl: int) -> np.ndarray:
        return self.cells[wl].copy()


class Plane:
    """A plane: blocks sharing bitlines and one latch set."""

    def __init__(
        self,
        geometry: FlashGeometry,
        timing: Optional[TimingLedger] = None,
        energy: Optional[EnergyLedger] = None,
    ):
        self.geometry = geometry
        self.num_bitlines = geometry.bitlines_per_plane
        self.timing = timing if timing is not None else TimingLedger()
        self.energy = energy if energy is not None else EnergyLedger()
        self.latches = PlaneLatches(self.num_bitlines, self.timing, self.energy)
        self._blocks: Dict[int, Block] = {}

    def block(self, index: int, mode: CellMode = CellMode.SLC) -> Block:
        if index < 0 or index >= self.geometry.blocks_per_plane:
            raise IndexError(f"block {index} out of range")
        if index not in self._blocks:
            self._blocks[index] = Block(
                self.geometry.wordlines_per_block, self.num_bitlines, mode
            )
        return self._blocks[index]
