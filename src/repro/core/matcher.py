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

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from ..he.arena import CiphertextArena, QueryArena, add_mod_q
from ..he.bfv import BFVContext, Ciphertext
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


def block_hits(
    blocks: Sequence[ResultBlock],
    flags_of: Callable[[Ciphertext, int, int], np.ndarray],
    num_variants: int,
    base_poly: int = 0,
) -> List[np.ndarray]:
    """Index generation over per-pair result blocks: per variant, the
    ascending flat indices ``(j - base_poly) * n + c`` of the set flags
    — the form every search cell returns and
    :meth:`ResultDecoder.decode_hits` reads.

    ``flags_of(ciphertext, poly_index, variant_cache_key)`` is one
    block's boolean flag vector: decryption on the key holder's side
    (:meth:`CipherMatchClient.flag_matches`), the comparator's
    prediction on the server's
    (:meth:`DeterministicComparator.flag_matches`).  ``blocks`` come in
    :meth:`SecureSearchEngine.search` order (polynomials ascending
    within a variant), so each variant's indices come out sorted.
    """
    parts: List[List[np.ndarray]] = [[] for _ in range(num_variants)]
    for block in blocks:
        flags = flags_of(
            block.ciphertext, block.poly_index, block.variant_cache_key
        )
        parts[block.variant_index].append(
            np.flatnonzero(flags) + (block.poly_index - base_poly) * len(flags)
        )
    return [
        np.concatenate(found) if found else np.empty(0, dtype=np.intp)
        for found in parts
    ]


def comparator_hits(
    comparator,
    arena: CiphertextArena,
    query: QueryArena,
    row_map: np.ndarray,
    polys: range,
) -> List[np.ndarray]:
    """Deterministic-mode index generation for the db x variant grid of
    the database polynomials ``polys`` (the whole database, or one
    serving shard's range; ``row_map`` is ``(V, len(polys))``):
    broadcast Hom-Add of the c0 rows plus the batched comparator, one
    variant at a time, each reduced to the sorted flat indices of its
    set flags before the next is formed — the single home of the fused
    comparator math for both the pipeline and the serving shards.
    """
    q = arena.params.q
    db_c0 = arena.c0_rows(polys.start, polys.stop)
    poly_indices = np.arange(polys.start, polys.stop, dtype=np.int64)
    hits = []
    for v_idx, rows in enumerate(row_map):
        result_c0 = add_mod_q(db_c0, query.c0[rows], q)
        hits.append(
            np.flatnonzero(
                comparator.flag_matches_batch(
                    result_c0,
                    poly_indices,
                    variant_cache_keys(v_idx, query.row_residue[rows]),
                )
            )
        )
    return hits


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
        polys: range,
    ) -> List[ResultBlock]:
        """Hom-Add every query variant against the database polynomials
        ``polys`` (the whole database, or one serving shard's range).

        ``encrypt_variant(variant_index, poly_index)`` supplies the
        encrypted query polynomial (the client pre-encrypts; the server
        only sees ciphertexts).
        """
        blocks = []
        n = db.n
        for v_idx, variant in enumerate(prepared.variants):
            for j in polys:
                query_ct = encrypt_variant(v_idx, j)
                result = self.backend.hom_add(db.ciphertexts[j], query_ct)
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


class ResultDecoder:
    """Turns per-coefficient match flags into database bit offsets."""

    def __init__(self, chunk_width: int, n: int, db_bit_length: int):
        self.chunk_width = chunk_width
        self.n = n
        self.db_bit_length = db_bit_length

    def decode_hits(
        self, prepared: PreparedQuery, hits: Sequence[np.ndarray]
    ) -> List[MatchCandidate]:
        """Decode from the set flags alone: ``hits[v]`` holds the
        ascending indices of variant ``v``'s set flags in its global
        flag vector (polynomial order, ``j * n + c``) — what every
        search cell returns (:func:`block_hits`, :func:`comparator_hits`,
        :func:`~repro.he.arena.fused_decrypt_flags`)."""
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
