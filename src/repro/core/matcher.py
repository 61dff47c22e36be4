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

from ..he.arena import CiphertextArena, QueryArena, add_mod_q, query_row_layout
from ..he.bfv import BFVContext, Ciphertext
from .packing import EncryptedDatabase
from .query import PreparedQuery


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
    query_row: int
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

    ``flags_of(ciphertext, poly_index, query_row)`` is one
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
            block.ciphertext, block.poly_index, block.query_row
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
    broadcast Hom-Add of the c0 rows plus the batched comparator, whose
    query masks are keyed by the query row, one variant at a time, each
    reduced to the sorted flat indices of its set flags before the next
    is formed — the single home of the fused comparator math for both
    the pipeline and the serving shards.
    """
    q = arena.params.q
    db_c0 = arena.c0_rows(polys.start, polys.stop)
    poly_indices = np.arange(polys.start, polys.stop, dtype=np.int64)
    return [
        np.flatnonzero(
            comparator.flag_matches_batch(
                add_mod_q(db_c0, query.c0[rows], q), poly_indices, rows
            )
        )
        for rows in row_map
    ]


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
        row_map = query_row_layout(prepared.variants, db.n, polys)
        for v_idx, rows in enumerate(row_map.tolist()):
            for j, row in zip(polys, rows):
                query_ct = encrypt_variant(v_idx, j)
                result = self.backend.hom_add(db.ciphertexts[j], query_ct)
                self.hom_add_count += 1
                blocks.append(
                    ResultBlock(
                        poly_index=j,
                        variant_index=v_idx,
                        query_row=row,
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
        :func:`~repro.he.arena.fused_decrypt_flags`).  One array pass
        over every variant's hits at once.

        A match of variant ``v`` is a run of ``span`` consecutive set
        flags starting at a position congruent to its rotation.  Set
        flags are rare (a non-matching coefficient is all-ones with
        probability ``1/t``), so the run test works on their indices
        alone: a hit starts a full run iff the hit ``span - 1`` places
        later is still ``v``'s and exactly ``span - 1`` positions away.
        When several variants find one offset, its candidate names the
        last of them that needs no verification, else the first.
        """
        num = prepared.num_variants

        def per_variant(attr: str) -> np.ndarray:
            values = (getattr(v, attr) for v in prepared.variants)
            return np.fromiter(values, dtype=np.int64, count=num)

        span, rotation = per_variant("span"), per_variant("rotation")
        counts = np.fromiter(map(len, hits), dtype=np.int64, count=num)
        flat = np.concatenate(hits, dtype=np.int64, casting="unsafe")
        owner = np.repeat(np.arange(num), counts)
        width = span[owner]
        last = np.arange(len(flat)) + width - 1
        heads = np.flatnonzero(last < len(flat))
        last = last[heads]
        heads = heads[
            (owner[last] == owner[heads]) & (flat[last] - flat[heads] == width[heads] - 1)
        ]
        starts, owner = flat[heads], owner[heads]
        aligned = (starts - rotation[owner]) % span[owner] == 0
        starts, owner = starts[aligned], owner[aligned]
        offsets = starts * self.chunk_width - per_variant("query_bit_offset")[owner]
        inside = (offsets >= 0) & (offsets + prepared.bit_length <= self.db_bit_length)
        offsets, owner = offsets[inside], owner[inside]
        # the surviving (offset, variant) pairs are few, one per match
        # and variant that finds it, and come in variant order
        variants = prepared.variants
        candidates: Dict[int, MatchCandidate] = {}
        for offset, v_idx in zip(offsets.tolist(), owner.tolist()):
            if offset not in candidates or not variants[v_idx].requires_verification:
                candidates[offset] = MatchCandidate(
                    offset=offset, phase=variants[v_idx].phase, variant_index=v_idx
                )
        return sorted(candidates.values(), key=lambda c: c.offset)


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
