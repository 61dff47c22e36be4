"""The server side of the CIPHERMATCH protocol.

The server stores the encrypted database and executes the Hom-Add
search.  It never holds key material; under ``SERVER_DETERMINISTIC``
index generation it additionally runs the match-polynomial comparison
itself (the paper's in-SSD index-generation unit) using only public
values and the shared masking seed.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..he.arena import QueryArena
from ..he.bfv import BFVContext, Ciphertext
from ..he.keys import PublicKey
from .match_polynomial import DeterministicComparator
from .matcher import (
    AdditionBackend,
    CPUAdditionBackend,
    ResultBlock,
    SecureSearchEngine,
    block_hits,
    comparator_hits,
)
from .packing import EncryptedDatabase
from .query import PreparedQuery


class CipherMatchServer:
    """Server endpoint: encrypted storage + Hom-Add search execution.

    No method takes a :class:`~repro.he.keys.SecretKey` and no attribute
    holds one (docs/serving.md "Trust boundary").  :meth:`search` is one
    ``backend.hom_add`` per (polynomial, variant) pair; for a plain CPU
    adder (:attr:`fused`) the broadcast kernels over the database's
    ciphertext arena compute the same thing — :meth:`search_index`
    here, the phase add on the key holder's side.
    """

    def __init__(self, ctx: BFVContext, backend: Optional[AdditionBackend] = None):
        self.ctx = ctx
        self.engine = SecureSearchEngine(backend or CPUAdditionBackend(ctx))
        self.db: Optional[EncryptedDatabase] = None
        self._comparator: Optional[DeterministicComparator] = None

    # -- storage ---------------------------------------------------------

    def store_database(self, db: EncryptedDatabase) -> None:
        """Replace the stored database; a backend that keeps database
        ciphertexts resident (the in-flash device) drops the old one."""
        self.db = db
        release = getattr(self.engine.backend, "release_database", None)
        if release is not None:
            release()

    def enable_deterministic_index(
        self, pk: PublicKey, seed: int, chunk_width: int
    ) -> None:
        """Arm the in-server index-generation unit (paper-literal mode)."""
        self._comparator = DeterministicComparator(self.ctx, pk, seed, chunk_width)

    def _armed(self) -> DeterministicComparator:
        if self._comparator is None:
            raise RuntimeError(
                "server-side index generation requires deterministic mode"
            )
        return self._comparator

    # -- search (Algorithm 1, lines 10-12) --------------------------------

    @property
    def fused(self) -> bool:
        """True when the broadcast arena kernels compute exactly what
        the backend would add pair by pair."""
        return getattr(self.engine.backend, "supports_fused", False)

    def search(
        self,
        prepared: PreparedQuery,
        encrypt_variant: Callable[[int, int], Ciphertext],
    ) -> List[ResultBlock]:
        """The result blocks of the whole database, for the client to
        decrypt or :meth:`generate_index` to compare."""
        if self.db is None:
            raise RuntimeError("no database stored on the server")
        return self.engine.search(
            self.db, prepared, encrypt_variant, range(self.db.num_polynomials)
        )

    def generate_index(
        self, blocks: Sequence[ResultBlock], num_variants: int
    ) -> List[np.ndarray]:
        """Server-side index generation (deterministic mode only):
        compare each result block against the predicted match
        ciphertext; per variant, the sorted indices of the set flags."""
        return block_hits(blocks, self._armed().flag_matches, num_variants)

    def search_index(self, query: QueryArena) -> List[np.ndarray]:
        """:meth:`search` + :meth:`generate_index` as broadcast kernels
        over the ciphertext arena: same hits, same Hom-Add tally."""
        comparator = self._armed()
        polys = range(self.db.num_polynomials)
        self.tally_hom_adds(query.num_variants * len(polys))
        arena = self.db.fused_arena(self.ctx.ring, self.ctx.params)
        return comparator_hits(comparator, arena, query, query.row_map(polys), polys)

    def tally_hom_adds(self, count: int) -> None:
        """Count the Hom-Adds a fused cell stands in for, one per pair,
        where the per-pair adder counts its own — so op-count models
        keep their meaning across cells."""
        self.engine.hom_add_count += count
        self.ctx.counter.additions += count

    @property
    def hom_add_count(self) -> int:
        return self.engine.hom_add_count
