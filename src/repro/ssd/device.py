"""The assembled CIPHERMATCH SSD (CM-IFP device) and the in-flash
addition backend that plugs into the secure-search engine.

``IFPAdditionBackend`` is the hardware-software codesign seam: the
per-pair search loop (:func:`repro.core.matcher.per_pair_blocks`, the
one loop every per-pair serving shard and the wire server run) calls
``hom_add`` and the addition executes inside the simulated NAND planes
via ``bop_add`` — coefficient-wise addition mod ``2**32`` on vertical
data is exactly BFV Hom-Add for the paper's ``q = 2**32``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..flash.cell_array import FlashGeometry
from ..flash.chip import FlashArray
from ..he.bfv import BFVContext, Ciphertext
from ..he.poly import RingPoly
from .controller import ControllerConfig, SSDController
from .interface import HostInterfaceLayer


@dataclass
class SSDConfig:
    geometry: FlashGeometry
    controller: ControllerConfig

    @staticmethod
    def functional(num_bitlines: int = 512, word_bits: int = 32) -> "SSDConfig":
        geometry = FlashGeometry.functional(
            num_bitlines=num_bitlines, wordlines=2 * word_bits
        )
        return SSDConfig(geometry, ControllerConfig(word_bits=word_bits))

    @staticmethod
    def paper() -> "SSDConfig":
        return SSDConfig(FlashGeometry(), ControllerConfig())


class CipherMatchSSD:
    """Flash array + controller + host interface."""

    def __init__(self, config: Optional[SSDConfig] = None):
        self.config = config or SSDConfig.functional()
        self.flash = FlashArray(self.config.geometry)
        self.controller = SSDController(self.flash, self.config.controller)
        self.host = HostInterfaceLayer(self.controller)
        self._next_lpn = 0

    def allocate_lpns(self, count: int) -> List[int]:
        lpns = list(range(self._next_lpn, self._next_lpn + count))
        self._next_lpn += count
        return lpns

    @property
    def simulated_seconds(self) -> float:
        return self.flash.timing.total_seconds

    @property
    def simulated_joules(self) -> float:
        return self.flash.energy.total_joules


class IFPAdditionBackend:
    """Executes BFV Hom-Add inside the simulated flash (CM-IFP).

    Database ciphertexts are written to the CIPHERMATCH region on first
    use and stay resident until :meth:`release_database`; every
    ``hom_add`` streams the query ciphertext's coefficients through
    ``bop_add``.  Requires a power-of-two coefficient modulus matching
    the vertical word width.
    """

    def __init__(self, ctx: BFVContext, ssd: Optional[CipherMatchSSD] = None):
        self.ctx = ctx
        word_bits = (ctx.params.q - 1).bit_length()
        if ctx.params.q != 1 << word_bits:
            raise ValueError(
                "IFP Hom-Add implements mod-2^k addition; coefficient modulus "
                f"q={ctx.params.q} is not a power of two"
            )
        self.word_bits = word_bits
        self.ssd = ssd or CipherMatchSSD(
            SSDConfig.functional(
                num_bitlines=max(512, 2 * ctx.params.n), word_bits=word_bits
            )
        )
        if self.ssd.config.controller.word_bits != word_bits:
            raise ValueError("SSD word width does not match ciphertext modulus")
        #: ``id`` of a resident ciphertext -> (the ciphertext, its
        #: logical pages); holding the object keeps its ``id`` from
        #: being reused by another ciphertext while the entry lives
        self._resident: Dict[int, Tuple[Ciphertext, List[int]]] = {}

    # -- placement -----------------------------------------------------------

    def _ciphertext_words(self, ct: Ciphertext) -> np.ndarray:
        return np.concatenate([ct.c0.coeffs, ct.c1.coeffs]).astype(np.int64)

    def _ensure_resident(self, ct: Ciphertext) -> List[int]:
        key = id(ct)
        if key in self._resident:
            return self._resident[key][1]
        words = self._ciphertext_words(ct)
        per_slot = self.ssd.controller.words_per_slot
        num_slots = -(-len(words) // per_slot)
        lpns = self.ssd.allocate_lpns(num_slots)
        for slot, lpn in enumerate(lpns):
            chunk = words[slot * per_slot : (slot + 1) * per_slot]
            self.ssd.controller.cm_write(lpn, chunk)
        self._resident[key] = (ct, lpns)
        return lpns

    def release_database(self) -> None:
        """Drop every resident ciphertext and reclaim its flash: the
        serving engine calls this when a new database replaces the
        stored one
        (:meth:`repro.serve.ShardedSearchEngine.adopt_database`)."""
        self._resident.clear()
        self.ssd.controller.cm_trim()

    # -- the AdditionBackend protocol ------------------------------------------

    def hom_add(self, stored: Ciphertext, query: Ciphertext) -> Ciphertext:
        """In-flash Hom-Add: ``stored`` lives in the flash, ``query``
        streams through the latches."""
        lpns = self._ensure_resident(stored)
        query_words = self._ciphertext_words(query)
        per_slot = self.ssd.controller.words_per_slot
        sums = np.zeros(len(query_words), dtype=np.int64)
        for slot, lpn in enumerate(lpns):
            lo = slot * per_slot
            hi = min(lo + per_slot, len(query_words))
            outcome = self.ssd.controller.cm_search(lpn, query_words[lo:hi])
            sums[lo:hi] = outcome.sums[: hi - lo]
        self.ctx.counter.additions += 1

        n = self.ctx.params.n
        c0 = RingPoly(self.ctx.ring, sums[:n].copy())
        c1 = RingPoly(self.ctx.ring, sums[n : 2 * n].copy())
        return Ciphertext(self.ctx.params, c0, c1)
