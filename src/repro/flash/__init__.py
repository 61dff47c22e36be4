"""Functional NAND-flash simulator: latch circuitry, cell arrays, the
parallelism hierarchy, and the CIPHERMATCH ``bop_add`` bit-serial
addition µ-program, with Table-3 timing and energy models."""

from .cell_array import Block, CellMode, FlashGeometry, Plane
from .chip import Channel, Die, FlashArray
from .commands import CommandLog, FlashCommand, FlashOp
from .energy import PAPER_E_BIT_ADD, EnergyLedger, FlashEnergies
from .latch import NUM_D_LATCHES, LatchTrace, PlaneLatches
from .microprogram import BitSerialAdder, vertical_to_words, words_to_vertical
from .timing import PAPER_T_BIT_ADD, FlashTimings, TimingLedger

__all__ = [
    "BitSerialAdder",
    "Block",
    "CellMode",
    "Channel",
    "CommandLog",
    "Die",
    "EnergyLedger",
    "FlashArray",
    "FlashCommand",
    "FlashEnergies",
    "FlashGeometry",
    "FlashOp",
    "FlashTimings",
    "LatchTrace",
    "NUM_D_LATCHES",
    "PAPER_E_BIT_ADD",
    "PAPER_T_BIT_ADD",
    "Plane",
    "PlaneLatches",
    "TimingLedger",
    "vertical_to_words",
    "words_to_vertical",
]
