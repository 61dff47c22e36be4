"""Client-side query preparation (Algorithm 1, lines 4-9).

The query is negated, chunked with the memory-efficient packing scheme,
replicated across polynomial coefficients and shifted to cover every
possible alignment of the query against the packed database.

Alignment model
---------------
A query of ``y`` bits can occur in the database at bit offset
``p = w*k + s`` (``w`` = chunk width, ``s`` = bit phase, ``k`` = chunk
index).  A database chunk becomes all-ones after Hom-Add with the
negated query only when *every* bit of that chunk is a known query bit,
so detection works on the *interior* chunks of an occurrence:

* phase ``s = 0``: the occurrence covers ``floor(y/w)`` full chunks.
* phase ``s > 0``: the first ``o = w - s`` query bits live in a partial
  chunk; the interior covers ``floor((y - o)/w)`` full chunks starting
  at query bit ``o``.

When the interior is empty (short queries at non-zero phase) the paper's
replicated-pattern form is used: the chunk pattern is a ``w``-bit window
of the query's periodic extension.  Such variants only *candidate*-match
(the surrounding bits are unchecked), so they are flagged
``requires_verification`` and the client's verification step filters
them; `guaranteed_phases` tells callers which phases detect exactly.

For interior spans longer than one chunk, the pattern repeats with
period ``span`` across coefficients; ``span`` rotational variants make a
run starting at any chunk index detectable.  The total Hom-Add count per
database polynomial is ``sum over phases of max(span_s, 1)`` — for the
paper's headline case (y = w = 16) this is exactly ``w`` = 16 variants,
matching §4.2.2.

Query rows
----------
An encrypted query row is named by its plaintext, ``(phase, shift)``:
the variants of one phase share a pattern, so a query encrypts one row
per variant whatever the database size — 33 for a 48-bit read at
``w = 16``, 185 for a 200-bit one (:func:`~repro.he.arena.query_row_layout`).
The row index is the key a row is cached under and, under
``SERVER_DETERMINISTIC``, the label its masking polynomial derives from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..he.arena import unstack_ciphertext
from ..he.bfv import BFVContext, Ciphertext
from ..he.keys import PublicKey, SecretKey
from ..he.poly import row_dtype
from ..utils.bits import chunk_bits, negate_bits
from .packing import derive_masking_poly


@dataclass
class QueryVariant:
    """One shifted/rotated alignment of the negated query."""

    phase: int  # bit phase s in [0, w)
    rotation: int  # chunk rotation r in [0, span)
    span: int  # number of interior chunks (>= 1 once padded)
    pattern_chunks: np.ndarray  # negated interior chunk values, len == span
    query_bit_offset: int  # o: first query bit covered by the interior
    requires_verification: bool


@dataclass
class PreparedQuery:
    """All variants of a query."""

    query_bits: np.ndarray
    chunk_width: int
    variants: List[QueryVariant]

    @property
    def bit_length(self) -> int:
        return len(self.query_bits)

    @property
    def num_variants(self) -> int:
        return len(self.variants)

    def row_plaintexts(self, rows: Sequence[int], n: int) -> np.ndarray:
        """``(len(rows), n)`` plaintext coefficients of the query rows
        ``rows`` (module docstring, "Query rows"): row ``r`` is
        ``variants[r]`` laid over database polynomial 0, coefficient
        ``i`` holding pattern chunk ``(i - rotation) mod span``.  A
        phase's pattern is tiled once over ``n + span`` coefficients;
        each of its rows copies the slice that starts at
        ``-rotation mod span``."""
        out = np.empty((len(rows), n), dtype=np.int64)
        tiled: Dict[int, np.ndarray] = {}
        for out_row, row in zip(out, rows):
            v = self.variants[row]
            if v.phase not in tiled:
                tiled[v.phase] = np.tile(v.pattern_chunks, n // v.span + 2)
            start = -v.rotation % v.span
            out_row[:] = tiled[v.phase][start : start + n]
        return out


def guaranteed_phases(query_bits: int, chunk_width: int) -> List[int]:
    """Bit phases at which a query of this length is detected exactly
    (i.e., has at least one fully-covered interior chunk)."""
    phases = []
    for s in range(chunk_width):
        o = (chunk_width - s) % chunk_width
        if (query_bits - o) // chunk_width >= 1:
            phases.append(s)
    return phases


class QueryPreparer:
    """Builds, replicates and encrypts query variants (lines 4-9)."""

    def __init__(self, ctx: BFVContext, chunk_width: int):
        self.ctx = ctx
        self.chunk_width = chunk_width

    def prepare(self, query_bits: np.ndarray) -> PreparedQuery:
        query_bits = np.asarray(query_bits, dtype=np.uint8)
        if len(query_bits) == 0:
            raise ValueError("empty query")
        w = self.chunk_width
        variants = []
        for s in range(w):
            variants.extend(self._variants_for_phase(query_bits, s))
        return PreparedQuery(query_bits, w, variants)

    def _variants_for_phase(
        self, query_bits: np.ndarray, phase: int
    ) -> List[QueryVariant]:
        w = self.chunk_width
        y = len(query_bits)
        o = (w - phase) % w
        interior = (y - o) // w if y > o else 0
        if interior >= 1:
            segment = query_bits[o : o + interior * w]
            pattern = chunk_bits(negate_bits(segment), w)
            return [
                QueryVariant(
                    phase=phase,
                    rotation=r,
                    span=interior,
                    pattern_chunks=pattern,
                    query_bit_offset=o,
                    requires_verification=(o > 0 or o + interior * w < y),
                )
                for r in range(interior)
            ]
        # Short-query fallback: periodic-extension window (paper's
        # replicated form).  Candidate-only.
        window = _periodic_window(query_bits, o % max(y, 1), w)
        pattern = chunk_bits(negate_bits(window), w)
        return [
            QueryVariant(
                phase=phase,
                rotation=0,
                span=1,
                pattern_chunks=pattern,
                query_bit_offset=o,
                requires_verification=True,
            )
        ]

    # ------------------------------------------------------------------
    # Encryption
    # ------------------------------------------------------------------

    def encrypt_variant_value(
        self,
        prepared: PreparedQuery,
        rows: Sequence[int],
        pk: PublicKey,
        sk: SecretKey,
        *,
        deterministic_seed: int | None = None,
    ) -> np.ndarray:
        """Encrypt the query rows ``rows`` (indices in
        :func:`~repro.he.arena.query_row_layout` order) in one pass.

        The serving layer (:mod:`repro.serve`) calls this once per
        request, with the rows its *bounded* LRU cache is missing, so
        that cache is the only place they are retained.

        The client holds both keys, so its queries are encrypted under
        ``sk`` and kept as their ``(R, n)`` phase rows ``delta * m - e``
        (:meth:`BFVContext.fresh_phase_rows`), all the fused kernel
        reads; :meth:`ciphertexts` makes ``(c0, c1)`` of them.  With
        ``deterministic_seed`` the rows are instead *defined* as a
        function of ``pk`` and the shared seed (the comparator predicts
        ``pk0 * u``, ``u`` derived from the row index): the noiseless
        public-key encryption database outsourcing uses, ``(R, 2, n)``.
        Either block is in :func:`~repro.he.poly.row_dtype`.
        """
        ctx, n = self.ctx, self.ctx.params.n
        plain = prepared.row_plaintexts(rows, n)
        if deterministic_seed is None:
            return ctx.fresh_phase_rows(plain)
        block = np.empty((len(rows), 2, n), dtype=row_dtype(ctx.params.q))
        for out, coeffs, row in zip(block, plain, rows):
            u = derive_masking_poly(ctx, deterministic_seed, "qv", int(row))
            ct = ctx.encrypt(ctx.plaintext(coeffs), pk, noiseless=True, u=u)
            out[0], out[1] = ct.c0.coeffs, ct.c1.coeffs
        return block

    def ciphertexts(self, block: np.ndarray, sk: SecretKey) -> List[Ciphertext]:
        """The ciphertext objects a per-pair adder reads, one per row
        of a :meth:`encrypt_variant_value` block: phase rows get their
        ``(c0, c1)`` from :meth:`BFVContext.encrypt_phase_rows` (one
        phase row, one ciphertext), ciphertext rows are read."""
        ctx = self.ctx
        if block.ndim == 2:
            block = ctx.encrypt_phase_rows(block, sk)
        return [
            unstack_ciphertext(ctx.ring, ctx.params, row)
            for row in block.astype(np.int64)
        ]


def _periodic_window(query_bits: np.ndarray, start: int, width: int) -> np.ndarray:
    """``width`` bits of the infinite periodic extension of the query,
    starting at query-bit ``start``."""
    y = len(query_bits)
    idx = (start + np.arange(width)) % y
    return query_bits[idx]
