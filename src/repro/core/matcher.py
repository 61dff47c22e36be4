"""Server-side secure string search (Algorithm 1, lines 10-12) and
result decoding back to database bit offsets.

The search itself is nothing but homomorphic additions — one Hom-Add
per (database polynomial, query variant) pair — which is the property
that lets CIPHERMATCH run inside NAND flash.  The execution backend is
pluggable: the CPU backend calls :meth:`BFVContext.add`; the IFP backend
(:mod:`repro.ssd.device`) performs the same additions with the simulated
in-flash bit-serial adder.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from ..he.arena import (
    CiphertextArena,
    QueryArena,
    add_mod_q,
    fused_decrypt_flags,
    query_row_layout,
    stack_ciphertext,
)
from ..he.bfv import BFVContext, Ciphertext
from ..he.poly import RingPoly
from .packing import EncryptedDatabase
from .query import (
    PreparedQuery,
    QueryVariant,
    variant_cache_key,
    variant_cache_keys,
)


class AdditionBackend(Protocol):
    """Anything that can add two ciphertexts coefficient-wise."""

    def hom_add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext: ...


class CPUAdditionBackend:
    """Reference software backend (CM-SW)."""

    #: the fused arena kernels compute exactly what this backend's
    #: per-pair adds compute, so the engine may batch through them.
    supports_fused = True

    def __init__(self, ctx: BFVContext):
        self.ctx = ctx

    def hom_add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        return self.ctx.add(a, b)


@dataclass
class ResultBlock:
    """Hom-Add result for one (database polynomial, variant)."""

    poly_index: int
    variant_index: int
    variant_cache_key: int
    ciphertext: Ciphertext


@dataclass
class MatchCandidate:
    """A decoded candidate occurrence."""

    offset: int
    phase: int
    variant_index: int
    verified: Optional[bool] = None


class FusedResultSet(SequenceABC):
    """The db x variant Hom-Add product as stacked arrays.

    Produced by :meth:`SecureSearchEngine.search_fused`: no per-pair
    ciphertext objects exist, yet the set *acts* like the object path's
    ``List[ResultBlock]`` — ``len`` / indexing / iteration materialize
    blocks lazily (in the object path's (variant, polynomial) order),
    so the wire protocol and other legacy consumers keep working.  Flag
    extraction bypasses materialization entirely through the fused
    kernels of :mod:`repro.he.arena`.
    """

    def __init__(
        self,
        ctx: BFVContext,
        db: EncryptedDatabase,
        arena: CiphertextArena,
        query: QueryArena,
        prepared: PreparedQuery,
    ):
        self.ctx = ctx
        self.db = db
        self.arena = arena
        self.query = query
        self.prepared = prepared
        self.poly_indices = np.arange(db.num_polynomials, dtype=np.int64)
        #: (V, P) query-row index per (variant, polynomial) pair
        self.row_map = query.row_map(self.poly_indices)
        self.num_variants = prepared.num_variants
        self.num_polynomials = db.num_polynomials

    # -- Sequence[ResultBlock] protocol -----------------------------------

    def __len__(self) -> int:
        return self.num_variants * self.num_polynomials

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        v_idx, j = divmod(index, self.num_polynomials)
        return self.materialize_block(v_idx, j)

    def materialize_block(self, v_idx: int, j: int) -> ResultBlock:
        """Build the (variant, polynomial) result block on demand —
        identical bytes to the object path's Hom-Add output."""
        row = self.row_map[v_idx, j]
        q = self.ctx.params.q
        ring = self.ctx.ring
        c0 = add_mod_q(self.arena.c0[j], self.query.c0[row], q)
        c1 = add_mod_q(self.arena.c1[j], self.query.c1[row], q)
        residue = int(self.query.row_residue[row])
        return ResultBlock(
            poly_index=j,
            variant_index=v_idx,
            variant_cache_key=variant_cache_key(v_idx, residue),
            ciphertext=Ciphertext(
                self.ctx.params, RingPoly(ring, c0), RingPoly(ring, c1)
            ),
        )

    def cache_keys(self, v_idx: int) -> np.ndarray:
        """``(P,)`` variant cache keys of one variant's result row."""
        residues = self.query.row_residue[self.row_map[v_idx]]
        return variant_cache_keys(v_idx, residues)

    # -- fused flag extraction --------------------------------------------

    def flags_by_decryption(self, sk) -> List[np.ndarray]:
        """Match flags via fused batch decryption (CLIENT_DECRYPT index
        generation) in the fused kernel's form: per variant, the sorted
        flat indices of the set flags of its ``(P, n)`` grid row — what
        :meth:`ResultDecoder.decode_hits` reads.  Counts the same
        logical decryptions the object path would perform."""
        hits = fused_decrypt_flags(
            self.arena.phases(sk),
            self.query.phases(sk),
            self.row_map,
            self.ctx.params,
            self.db.chunk_width,
        )
        self.ctx.counter.decryptions += len(self)
        return hits

    def flags_by_comparator(self, comparator) -> np.ndarray:
        """``(V, P, n)`` boolean match flags via the batched
        deterministic comparator (SERVER_DETERMINISTIC mode)."""
        return comparator_flag_grid(
            comparator, self.arena, self.query, self.row_map, self.poly_indices
        )


def comparator_flag_grid(
    comparator,
    arena: CiphertextArena,
    query: QueryArena,
    row_map: np.ndarray,
    poly_indices: np.ndarray,
) -> np.ndarray:
    """Deterministic-mode match flags for a whole (or shard-sliced)
    db x variant grid: broadcast Hom-Add of the c0 rows plus the
    batched comparator, one variant at a time — the single home of the
    fused comparator math for both the pipeline and the serving shards.
    """
    q = arena.params.q
    num_variants, num_polys = row_map.shape
    flags = np.empty((num_variants, num_polys, arena.n), dtype=bool)
    for v_idx in range(num_variants):
        rows = row_map[v_idx]
        result_c0 = add_mod_q(arena.c0, query.c0[rows], q)
        flags[v_idx] = comparator.flag_matches_batch(
            result_c0,
            poly_indices,
            variant_cache_keys(v_idx, query.row_residue[rows]),
        )
    return flags


class SecureSearchEngine:
    """Runs the Hom-Add search over an encrypted database."""

    def __init__(self, backend: AdditionBackend):
        self.backend = backend
        self.hom_add_count = 0

    def search(
        self,
        db: EncryptedDatabase,
        prepared: PreparedQuery,
        encrypt_variant: Callable[[int, int], Ciphertext],
    ) -> List[ResultBlock]:
        """Hom-Add every query variant against every database polynomial.

        ``encrypt_variant(variant_index, poly_index)`` supplies the
        encrypted query polynomial (the client pre-encrypts; the server
        only sees ciphertexts).
        """
        blocks = []
        n = db.n
        for v_idx, variant in enumerate(prepared.variants):
            for j, db_ct in enumerate(db.ciphertexts):
                query_ct = encrypt_variant(v_idx, j)
                result = self.backend.hom_add(db_ct, query_ct)
                self.hom_add_count += 1
                residue = (j * n) % variant.span
                blocks.append(
                    ResultBlock(
                        poly_index=j,
                        variant_index=v_idx,
                        variant_cache_key=variant_cache_key(v_idx, residue),
                        ciphertext=result,
                    )
                )
        return blocks

    def search_fused(
        self,
        db: EncryptedDatabase,
        prepared: PreparedQuery,
        encrypt_variant: Callable[[int, int], Ciphertext],
    ) -> FusedResultSet:
        """The same db x variant product as :meth:`search`, executed as
        broadcast kernels over the database's ciphertext arena.

        The logical Hom-Add count is identical to the object path —
        one per (polynomial, variant) pair — and is accounted the same
        way, on both :attr:`hom_add_count` and the context's operation
        counter, so op-count models keep their meaning across kernels.
        """
        ctx = self.backend.ctx
        arena = db.fused_arena(ctx.ring, ctx.params)
        query = QueryArena(
            ctx.ring,
            ctx.params,
            prepared.variants,
            db.num_polynomials,
            [
                stack_ciphertext(encrypt_variant(v_idx, j))
                for v_idx, _, j in query_row_layout(
                    prepared.variants, ctx.ring.n, db.num_polynomials
                )
            ],
        )
        count = prepared.num_variants * db.num_polynomials
        self.hom_add_count += count
        ctx.counter.additions += count
        return FusedResultSet(ctx, db, arena, query, prepared)


class ResultDecoder:
    """Turns per-coefficient match flags into database bit offsets."""

    def __init__(self, chunk_width: int, n: int, db_bit_length: int):
        self.chunk_width = chunk_width
        self.n = n
        self.db_bit_length = db_bit_length

    def decode(
        self,
        prepared: PreparedQuery,
        flags_by_block: Dict[tuple, np.ndarray],
        num_polynomials: int,
    ) -> List[MatchCandidate]:
        """``flags_by_block[(variant_index, poly_index)]`` is the boolean
        all-ones flag vector for that result block."""
        return self.decode_hits(
            prepared,
            [
                np.flatnonzero(
                    self._global_flags(v_idx, flags_by_block, num_polynomials)
                )
                for v_idx in range(prepared.num_variants)
            ],
        )

    def decode_hits(
        self, prepared: PreparedQuery, hits: Sequence[np.ndarray]
    ) -> List[MatchCandidate]:
        """Decode from the set flags alone: ``hits[v]`` holds the
        ascending indices of variant ``v``'s set flags in its global
        flag vector (polynomial order, ``j * n + c``) — the fused
        kernels' output, and ``np.flatnonzero`` of what :meth:`decode`
        assembles from per-block vectors."""
        candidates: Dict[int, MatchCandidate] = {}
        for v_idx, variant in enumerate(prepared.variants):
            for offset in self._offsets_for_variant(variant, hits[v_idx], prepared):
                offset = int(offset)
                existing = candidates.get(offset)
                if existing is None or (
                    existing.verified is None and not variant.requires_verification
                ):
                    candidates[offset] = MatchCandidate(
                        offset=offset, phase=variant.phase, variant_index=v_idx
                    )
        return sorted(candidates.values(), key=lambda c: c.offset)

    def _global_flags(
        self,
        variant_index: int,
        flags_by_block: Dict[tuple, np.ndarray],
        num_polynomials: int,
    ) -> np.ndarray:
        parts = []
        for j in range(num_polynomials):
            block = flags_by_block.get((variant_index, j))
            if block is None:
                block = np.zeros(self.n, dtype=bool)
            parts.append(np.asarray(block, dtype=bool))
        return np.concatenate(parts) if parts else np.zeros(0, dtype=bool)

    def _offsets_for_variant(
        self, variant: QueryVariant, hits: np.ndarray, prepared: PreparedQuery
    ) -> np.ndarray:
        """Database bit offsets at which ``variant`` matches, from the
        sorted indices of the set flags of its global flag vector.

        A match is a run of ``span`` consecutive set flags starting at
        a position congruent to the variant's rotation.  Set flags are
        rare (a non-matching coefficient is all-ones with probability
        ``1/t``), so the run test works on their indices alone:
        ``hits[k]`` starts a full run iff the hit ``span - 1`` places
        later is exactly ``span - 1`` positions away.
        """
        w = self.chunk_width
        span = variant.span
        o = variant.query_bit_offset
        y = prepared.bit_length
        heads = hits[: max(len(hits) - span + 1, 0)]
        starts = heads[hits[span - 1 :] - heads == span - 1]
        starts = starts[(starts - variant.rotation) % span == 0]
        offsets = starts * w - o
        offsets = offsets[(offsets >= 0) & (offsets + y <= self.db_bit_length)]
        return offsets.astype(np.int64)


def verify_candidates(
    candidates: List[MatchCandidate],
    oracle: Callable[[int], bool],
) -> List[MatchCandidate]:
    """Run the verification step: keep candidates the oracle confirms.

    In deployment the oracle is the client re-checking boundary bits of
    its own data (it owns the plaintext); in tests it is the plaintext
    reference matcher.
    """
    verified = []
    for cand in candidates:
        cand.verified = bool(oracle(cand.offset))
        if cand.verified:
            verified.append(cand)
    return verified
