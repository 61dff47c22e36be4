"""The data transposition unit (§4.3.2 item 2, §7.1).

CIPHERMATCH stores the encrypted database in a *vertical* layout (each
32-bit coefficient along one bitline) while the host works with the
conventional horizontal layout.  The transposition unit converts 4 KiB
pages between the two on CM-read / CM-write and on page faults.

Two implementations with identical functional behaviour:

* software, running on an SSD-controller core — 13.6 us per 4 KiB page
  (measured by the paper in a QEMU Cortex-R5 environment), hidden under
  the 22.5 us SLC flash read;
* hardware, a dedicated unit next to the controller — 158 ns per page,
  0.24 mm^2 in 22 nm (§7.1), needed once Z-NAND-class reads (~3 us)
  shrink the window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flash.microprogram import vertical_to_words, words_to_vertical


@dataclass(frozen=True)
class TranspositionCosts:
    software_latency_per_page: float = 13.6e-6
    hardware_latency_per_page: float = 158e-9
    hardware_area_mm2: float = 0.24
    flash_read_latency: float = 22.5e-6
    znand_read_latency: float = 3.0e-6

    def hidden_under_read(self, hardware: bool, read_latency: float | None = None) -> bool:
        """Can transposition be fully overlapped with the flash read?"""
        read = self.flash_read_latency if read_latency is None else read_latency
        latency = (
            self.hardware_latency_per_page if hardware else self.software_latency_per_page
        )
        return latency <= read


class DataTranspositionUnit:
    """Functional + timed page transposition."""

    def __init__(self, word_bits: int = 32, hardware: bool = False):
        self.word_bits = word_bits
        self.hardware = hardware
        self.costs = TranspositionCosts()
        self.pages_transposed = 0
        self.busy_seconds = 0.0

    @property
    def latency_per_page(self) -> float:
        if self.hardware:
            return self.costs.hardware_latency_per_page
        return self.costs.software_latency_per_page

    def _charge(self, pages: int) -> None:
        self.pages_transposed += pages
        self.busy_seconds += pages * self.latency_per_page

    def to_vertical(self, words: np.ndarray, num_bitlines: int) -> np.ndarray:
        """Horizontal words -> bit-plane matrix [word_bits x bitlines]."""
        self._charge(1)
        return words_to_vertical(
            np.asarray(words, dtype=np.int64), self.word_bits, num_bitlines
        )

    def to_horizontal(self, matrix: np.ndarray, count: int) -> np.ndarray:
        """Bit-plane matrix -> horizontal words."""
        self._charge(1)
        return vertical_to_words(matrix, count)
