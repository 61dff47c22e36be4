"""The server side of the CIPHERMATCH protocol.

The server stores the encrypted database and executes the Hom-Add
search.  It never holds key material; under ``SERVER_DETERMINISTIC``
index generation it additionally runs the match-polynomial comparison
itself (the paper's in-SSD index-generation unit) using only public
values and the shared masking seed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..he.bfv import BFVContext, Ciphertext
from ..he.keys import PublicKey
from .match_polynomial import DeterministicComparator
from .matcher import (
    AdditionBackend,
    CPUAdditionBackend,
    FusedResultSet,
    ResultBlock,
    SecureSearchEngine,
)
from .packing import EncryptedDatabase
from .query import PreparedQuery


class CipherMatchServer:
    """Server endpoint: encrypted storage + Hom-Add search execution.

    A plain CPU adder (``backend.supports_fused``) searches through the
    fused kernels: one broadcast over the database's ciphertext arena,
    returned as a lazy :class:`~repro.core.matcher.FusedResultSet`.
    Backends that do their own addition (the simulated in-flash IFP
    backend) take the one-``hom_add``-per-pair path — the fused kernels
    only stand in for plain CPU adds.
    """

    def __init__(self, ctx: BFVContext, backend: Optional[AdditionBackend] = None):
        self.ctx = ctx
        self.engine = SecureSearchEngine(backend or CPUAdditionBackend(ctx))
        self.db: Optional[EncryptedDatabase] = None
        self._comparator: Optional[DeterministicComparator] = None

    # -- storage ---------------------------------------------------------

    def store_database(self, db: EncryptedDatabase) -> None:
        self.db = db

    def enable_deterministic_index(
        self, pk: PublicKey, seed: int, chunk_width: int
    ) -> None:
        """Arm the in-server index-generation unit (paper-literal mode)."""
        self._comparator = DeterministicComparator(self.ctx, pk, seed, chunk_width)

    # -- search (Algorithm 1, lines 10-12) --------------------------------

    def search(
        self,
        prepared: PreparedQuery,
        encrypt_variant: Callable[[int, int], Ciphertext],
    ) -> Sequence[ResultBlock]:
        if self.db is None:
            raise RuntimeError("no database stored on the server")
        if getattr(self.engine.backend, "supports_fused", False):
            return self.engine.search_fused(self.db, prepared, encrypt_variant)
        return self.engine.search(self.db, prepared, encrypt_variant)

    def generate_index(
        self, blocks: Sequence[ResultBlock]
    ) -> Dict[tuple, np.ndarray]:
        """Server-side index generation (deterministic mode only):
        compare each result block against the predicted match ciphertext
        and return per-coefficient flags.

        A fused result set takes the batched comparator (stacked-array
        compare); the returned dictionary then holds zero-copy views of
        the flag grid, so downstream decode is unchanged either way.
        """
        if self._comparator is None:
            raise RuntimeError(
                "server-side index generation requires deterministic mode"
            )
        if isinstance(blocks, FusedResultSet):
            grid = blocks.flags_by_comparator(self._comparator)
            return {
                (v_idx, j): grid[v_idx, j]
                for v_idx in range(blocks.num_variants)
                for j in range(blocks.num_polynomials)
            }
        flags: Dict[tuple, np.ndarray] = {}
        for block in blocks:
            flags[(block.variant_index, block.poly_index)] = (
                self._comparator.flag_matches(
                    block.ciphertext, block.poly_index, block.variant_cache_key
                )
            )
        return flags

    @property
    def hom_add_count(self) -> int:
        return self.engine.hom_add_count
