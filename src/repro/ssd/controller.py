"""The SSD controller: embedded cores running the FTL, the data
transposition unit, the index-generation unit, and the new CIPHERMATCH
command handlers (§4.3.2).

The controller is where ``CM-write`` turns horizontal coefficient words
into the vertical layout, where ``CM-search`` expands into per-plane
``bop_add`` µ-programs, and where index generation runs over the
streamed-out sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..flash.cell_array import CellMode
from ..flash.chip import FlashArray
from ..flash.commands import CommandLog, FlashCommand, FlashOp
from ..flash.microprogram import BitSerialAdder
from .ftl import FlashTranslationLayer, PhysicalAddress, Region
from .index_gen import IndexGenerationUnit
from .transpose import DataTranspositionUnit


@dataclass(frozen=True)
class ControllerConfig:
    """ARM Cortex-R5-class controller (Table 3)."""

    num_cores: int = 5
    clock_hz: float = 1.5e9
    word_bits: int = 32
    hardware_transposition: bool = False
    ciphermatch_fraction: float = 0.5


class SSDController:
    """Command execution engine of the CIPHERMATCH SSD."""

    def __init__(self, flash: FlashArray, config: Optional[ControllerConfig] = None):
        self.flash = flash
        self.config = config or ControllerConfig()
        self.ftl = FlashTranslationLayer(
            flash.geometry,
            ciphermatch_fraction=self.config.ciphermatch_fraction,
            word_bits=self.config.word_bits,
        )
        self.transposer = DataTranspositionUnit(
            self.config.word_bits, hardware=self.config.hardware_transposition
        )
        self.index_gen = IndexGenerationUnit()
        self.log = CommandLog()
        self._adders: Dict[int, BitSerialAdder] = {}

    # -- helpers -----------------------------------------------------------

    @property
    def words_per_slot(self) -> int:
        """How many vertical words one slot (= one plane page width) holds."""
        return self.flash.geometry.bitlines_per_plane

    def _adder_for(self, ppa: PhysicalAddress) -> BitSerialAdder:
        plane_index = ppa.plane_index(self.flash.geometry)
        if plane_index not in self._adders:
            self._adders[plane_index] = BitSerialAdder(
                self.flash.plane(plane_index), self.config.word_bits
            )
        return self._adders[plane_index]

    def _record(self, op: FlashOp, ppa: PhysicalAddress) -> None:
        self.log.record(
            FlashCommand(
                op=op,
                channel=ppa.channel,
                die=ppa.die,
                plane=ppa.plane,
                block=ppa.block,
                wordline=ppa.wordline,
            )
        )

    # -- CIPHERMATCH-region operations ----------------------------------------

    def cm_write(self, lpn: int, words: np.ndarray) -> PhysicalAddress:
        """CM-write: transpose to vertical layout and program one slot."""
        words = np.asarray(words, dtype=np.int64)
        if len(words) > self.words_per_slot:
            raise ValueError(
                f"{len(words)} words exceed slot capacity {self.words_per_slot}"
            )
        # Out-of-place update: a rewrite gets a fresh slot (flash cannot
        # be re-programmed in place) and the mapping table is rebound.
        ppa = self.ftl.allocate_ciphermatch_slot(lpn)
        # transposition happens in the controller before programming
        self.transposer.to_vertical(words, self.flash.geometry.bitlines_per_plane)
        adder = self._adder_for(ppa)
        adder.store_words(ppa.block, words, wl_offset=ppa.wordline)
        self._record(FlashOp.PROGRAM_PAGE, ppa)
        return ppa

    def cm_trim(self) -> None:
        """Discard the whole CIPHERMATCH region: forget its mappings,
        restart slot allocation and erase the blocks that held slots."""
        for ppa in self.ftl.release_ciphermatch_region():
            plane = self.flash.plane(ppa.plane_index(self.flash.geometry))
            block = plane.block(ppa.block)
            if block.programmed.any():  # several slots share a block
                block.erase()
                self._record(FlashOp.ERASE_BLOCK, ppa)

    def cm_read(self, lpn: int) -> np.ndarray:
        """CM-read / page fault path: read ``word_bits`` wordlines and
        transpose back to the horizontal layout."""
        ppa = self.ftl.lookup(Region.CIPHERMATCH, lpn)
        if ppa is None:
            raise KeyError(f"no CIPHERMATCH mapping for lpn {lpn}")
        adder = self._adder_for(ppa)
        plane = adder.plane
        block = plane.block(ppa.block)
        matrix = np.stack(
            [
                block.read_wordline(ppa.wordline + i)
                for i in range(self.config.word_bits)
            ]
        )
        for _ in range(self.config.word_bits):
            plane.timing.charge_read()
            plane.energy.charge_read()
        self._record(FlashOp.READ_PAGE, ppa)
        return self.transposer.to_horizontal(matrix, self.words_per_slot)

    def cm_search(
        self,
        lpn: int,
        query_words: np.ndarray,
        *,
        expected_words: Optional[np.ndarray] = None,
        match_value: Optional[int] = None,
    ) -> "SearchOutcome":
        """CM-search: ``bop_add`` of the stored slot with the query words,
        plus optional in-controller index generation."""
        ppa = self.ftl.lookup(Region.CIPHERMATCH, lpn)
        if ppa is None:
            raise KeyError(f"no CIPHERMATCH mapping for lpn {lpn}")
        adder = self._adder_for(ppa)
        sums = adder.add(
            ppa.block, np.asarray(query_words, dtype=np.int64), wl_offset=ppa.wordline
        )
        self._record(FlashOp.BOP_ADD, ppa)

        flags = None
        indices: List[int] = []
        if expected_words is not None:
            flags = self.index_gen.flag_equal(sums, np.asarray(expected_words))
            indices = self.index_gen.indices_from_flags(flags)
        elif match_value is not None:
            flags = self.index_gen.flag_value(sums, match_value)
            indices = self.index_gen.indices_from_flags(flags)
        return SearchOutcome(sums=sums, flags=flags, match_indices=indices)

    # -- conventional-region operations ----------------------------------------

    def conventional_write(self, lpn: int, page_bits: np.ndarray) -> PhysicalAddress:
        ppa = self.ftl.lookup(Region.CONVENTIONAL, lpn) or self.ftl.allocate_conventional(lpn)
        plane_index = ppa.plane_index(self.flash.geometry)
        plane = self.flash.plane(plane_index)
        block = plane.block(ppa.block, CellMode.TLC)
        if block.programmed[ppa.wordline]:
            block.erase()
        block.program_wordline(ppa.wordline, np.asarray(page_bits, dtype=np.uint8))
        self._record(FlashOp.PROGRAM_PAGE, ppa)
        return ppa

    def conventional_read(self, lpn: int) -> np.ndarray:
        ppa = self.ftl.lookup(Region.CONVENTIONAL, lpn)
        if ppa is None:
            raise KeyError(f"no conventional mapping for lpn {lpn}")
        plane_index = ppa.plane_index(self.flash.geometry)
        plane = self.flash.plane(plane_index)
        plane.timing.charge_read(slc=False)
        plane.energy.charge_read()
        self._record(FlashOp.READ_PAGE, ppa)
        return plane.block(ppa.block).read_wordline(ppa.wordline)


@dataclass
class SearchOutcome:
    """Result of one CM-search slot execution."""

    sums: np.ndarray
    flags: Optional[np.ndarray]
    match_indices: List[int]

