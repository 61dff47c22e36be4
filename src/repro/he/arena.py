"""Ciphertext arena: contiguous stacked ciphertext storage plus the
fused batched Hom-Add / decrypt / flag kernels for the search hot path.

The CIPHERMATCH search is *nothing but* coefficient-wise additions
(Algorithm 1), yet the object-granular execution path spends most of
its time allocating a :class:`~repro.he.bfv.Ciphertext` per (database
polynomial, query variant) pair and then decrypting every result block
with its own ``c1 * s`` ring multiply.  The arena removes both costs:

* :class:`CiphertextArena` stores a whole encrypted database as one
  ``(num_polys, 2, n)`` int64 array (row ``[j, 0]`` is ``c0`` of the
  j-th polynomial, ``[j, 1]`` is ``c1``), built tile by tile on first
  touch.  A serving shard is a row *range* of it: the accessors take
  ``[lo, hi)``, build only that range's tiles and return zero-copy views.
* :meth:`CiphertextArena.hom_add_broadcast` performs the entire
  db x variant product as one broadcast add + one modular fold — no
  per-pair Python objects.
* :func:`decrypt_batch` pushes *stacked* result rows through one
  batched transform pass (``c1`` rows against the cached secret-key
  transform) instead of one ring multiply per block, and
  :func:`flags_batch` turns the decrypted grid into the boolean
  all-ones match flags in one vectorized compare.
* For results produced by the broadcast add itself there is an even
  stronger identity: decryption is linear, so the phase of
  ``ct_db + ct_q`` equals ``phase(ct_db) + phase(ct_q) mod q``.
  :meth:`CiphertextArena.phases` computes the database-side phases once
  per (database, secret key) — ``num_polys`` multiplies instead of
  ``num_polys * num_variants`` — and :func:`fused_decrypt_flags` folds
  the per-variant query phases over them with pure broadcast adds,
  then generates the match flags by a *range test* on the summed phase:
  a coefficient decrypts to the all-ones match value exactly when its
  phase lies in one fixed interval of ``[0, q)``, so index generation
  is an add, a modular fold and a compare — no plaintext scaling, no
  division, no arithmetic wider than int64 at any supported modulus.
  At the paper's ``q = 2**32`` the phase rows are ``uint32`` and the
  wrapping add *is* the fold.

Every kernel is exact: it produces bit-for-bit the coefficients the
object path produces (``tests/he/test_arena.py`` enforces this, under
the test oracle's big-int ring arithmetic as well).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .bfv import Ciphertext
from .poly import RingContext, RingPoly

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .keys import SecretKey
    from .params import BFVParams

# ---------------------------------------------------------------------------
# Tile / build plumbing
# ---------------------------------------------------------------------------

#: default per-tile output budget for the tiled broadcast add: large
#: enough that the numpy dispatch overhead is negligible (hundreds of
#: rows per tile at realistic n), small enough that one output tile plus
#: its database tile stay resident in a last-level cache instead of
#: streaming the whole (P, V, 2, n) product through DRAM twice.
_DEFAULT_TILE_BYTES = 1 << 25

#: cells per tile of the flag kernel's scratch: the phase tile (256 KiB
#: of uint32), the summed tile and its flags stay cache-resident while
#: every variant passes over them
_FLAG_TILE_CELLS = 1 << 16

#: variants per block of the flag kernel: one gather, add and compare
_FLAG_BLOCK_VARIANTS = 4

#: scans per block before the ``q = 2**32`` screen takes the exact test
#: (a 2**18-cell block holds ~8 false candidates at ``t = 2**16``)
_FLAG_SCAN_CAP = 32

#: rows per lazy-build tile: the granularity at which the stack and
#: the phase view materialize on first touch.  At the
#: paper's n=4096 one tile is 16 rows x 64 KiB = 1 MiB of ciphertext.
_BUILD_TILE_ROWS = 16


def _tile_shape(
    num_polys: int, num_variants: int, n: int, tile_bytes: int
) -> Tuple[int, int]:
    """``(poly_tile, variant_tile)`` for the tiled broadcast add: one
    output tile (``variant_tile * poly_tile`` size-2 rows of int64)
    fits the byte budget.  The variant axis is kept short so the
    database tile it broadcasts against is reused from cache."""
    row_bytes = 2 * n * np.dtype(np.int64).itemsize
    variant_tile = max(1, min(num_variants, 4))
    poly_tile = max(1, tile_bytes // (variant_tile * row_bytes))
    return min(poly_tile, max(1, num_polys)), variant_tile


# ---------------------------------------------------------------------------
# Shared modular kernels
# ---------------------------------------------------------------------------


def add_mod_q(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Broadcast ``(a + b) mod q`` for int64 operands already in
    ``[0, q)`` — the Hom-Add inner kernel.

    The sum is below ``2q <= 2**63`` so int64 addition is exact; the
    reduction is a mask for the paper's power-of-two modulus and one
    conditional subtract otherwise (never a division).
    """
    total = a + b
    if q & (q - 1) == 0:
        np.bitwise_and(total, q - 1, out=total)
        return total
    np.subtract(total, q, out=total, where=total >= q)
    return total


def mul_rows_by_poly(
    ring: RingContext, rows: np.ndarray, poly: RingPoly
) -> np.ndarray:
    """``(m, n)`` coefficient rows (each in ``[0, q)``) times one ring
    polynomial, mod q — batched on the vectorized backend, a per-row
    loop on any other backend.  Bit-identical to ``m`` scalar products
    either way (both paths compute the exact integer convolution)."""
    return ring.backend.mul_rows_by_poly(rows, poly)


def scale_rows_to_plaintext(rows: np.ndarray, q: int, t: int) -> np.ndarray:
    """Vectorized BFV plaintext scaling ``round(t * phase / q) mod t``
    over any stack of *centered* phase rows — the same arithmetic as
    :meth:`repro.he.bfv.BFVContext._scale_to_plaintext`, broadcast over
    leading dimensions."""
    if t.bit_length() + q.bit_length() <= 62:
        return (t * rows + q // 2) // q % t
    scaled = (t * rows.astype(object) + q // 2) // q % t
    return scaled.astype(np.int64)


def center_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """Lift ``[0, q)`` rows to the centered interval ``(-q/2, q/2]``."""
    half = q // 2
    return np.where(rows > half, rows - q, rows)


def phase_dtype(q: int) -> np.dtype:
    """Element type of the phase rows :func:`fused_decrypt_flags`
    streams: ``uint32`` at ``q = 2**32``, where a wrapping add is the
    fold mod q, ``int64`` at every other modulus."""
    return np.dtype(np.uint32 if q == 1 << 32 else np.int64)


def _as_phase_rows(rows: np.ndarray, q: int) -> np.ndarray:
    """``rows`` in the kernel's :func:`phase_dtype` (no copy when they
    already are).  ``uint32`` is the ``q = 2**32`` form only — at any
    other modulus it is a caller mistake, not data to reinterpret —
    and rows of any other type must lie in ``[0, q)``."""
    want = phase_dtype(q)
    if rows.dtype == np.uint32:
        if want != np.uint32:
            raise ValueError(
                f"uint32 phase rows are the q = 2**32 form, got q={q}"
            )
        return rows
    if rows.size and not (0 <= rows.min() and rows.max() < q):
        raise ValueError(f"phase rows must lie in [0, q) for q={q}")
    return rows.astype(want, copy=False)


# ---------------------------------------------------------------------------
# The arena
# ---------------------------------------------------------------------------


class CiphertextArena:
    """A stack of size-2 ciphertexts as one contiguous int64 array.

    ``stack[j, 0]`` / ``stack[j, 1]`` are the ``c0`` / ``c1``
    coefficient rows of the j-th ciphertext.
    """

    def __init__(
        self,
        ring: RingContext,
        params: "BFVParams",
        stack: np.ndarray,
        _source: "Sequence[Ciphertext] | None" = None,
        build_tile: int = _BUILD_TILE_ROWS,
    ):
        if stack.ndim != 3 or stack.shape[1] != 2 or stack.shape[2] != ring.n:
            raise ValueError(
                f"expected a (num_polys, 2, {ring.n}) stack, got {stack.shape}"
            )
        self.ring = ring
        self.params = params
        self.stack = stack
        # Reentrant: the phase builder calls back into the stack
        # builder for the same row range under one lock.
        self._lock = threading.RLock()
        #: rows per lazily-built tile of the stack/phase views
        self._build_tile = max(1, int(build_tile))
        #: pending ciphertext list (lazy build); None once materialized
        self._source: "List[Ciphertext] | None" = (
            list(_source) if _source is not None else None
        )
        self._built: np.ndarray | None = (
            np.zeros(self._num_tiles, dtype=bool)
            if self._source is not None
            else None
        )
        #: secret key the phase view was computed against
        self._phase_sk: object | None = None
        #: (num_polys, n) phase rows, built per tile on first touch
        self._phase_rows: np.ndarray | None = None
        self._phase_built: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_ciphertexts(
        cls,
        ring: RingContext,
        params: "BFVParams",
        ciphertexts: Sequence[Ciphertext],
        *,
        lazy: bool = False,
        build_tile: int = _BUILD_TILE_ROWS,
    ) -> "CiphertextArena":
        """Stack a list of size-2 ciphertexts.

        Eager (default): one copy, at build time.  ``lazy=True`` defers
        the copy: the stack allocates (virtual pages only) and rows
        materialize per :attr:`build tile <_build_tile>` the first time
        a kernel touches them — so outsourcing a database costs nothing
        up front and a shard's first query builds only that shard's
        range.  Shape validation stays eager either way.
        """
        n = ring.n
        for ct in ciphertexts:
            if ct.size != 2:
                raise ValueError("arena requires size-2 ciphertexts")
        stack = np.empty((len(ciphertexts), 2, n), dtype=np.int64)
        if lazy:
            return cls(
                ring, params, stack, _source=ciphertexts, build_tile=build_tile
            )
        for j, ct in enumerate(ciphertexts):
            stack[j, 0] = ct.c0.coeffs
            stack[j, 1] = ct.c1.coeffs
        return cls(ring, params, stack, build_tile=build_tile)

    # -- lazy build --------------------------------------------------------

    @property
    def _num_tiles(self) -> int:
        return -(-self.stack.shape[0] // self._build_tile) if self.stack.shape[0] else 0

    def _tiles_over(self, lo: int, hi: int) -> range:
        """Build-tile indices covering rows ``[lo, hi)``."""
        tile = self._build_tile
        return range(lo // tile, (hi - 1) // tile + 1) if hi > lo else range(0)

    def _ensure_rows(self, lo: int, hi: int) -> None:
        """Materialize stack rows ``[lo, hi)`` from the pending
        ciphertext list; no-op once built or for eager arenas.  Only the
        tiles covering the range are built, so one shard's touch never
        builds another shard's rows."""
        if self._source is None or hi <= lo:
            return
        with self._lock:
            source = self._source
            if source is None:
                return
            built = self._built
            tile = self._build_tile
            for t in self._tiles_over(lo, hi):
                if built[t]:
                    continue
                for j in range(t * tile, min((t + 1) * tile, self.num_polys)):
                    ct = source[j]
                    self.stack[j, 0] = ct.c0.coeffs
                    self.stack[j, 1] = ct.c1.coeffs
                built[t] = True
            if built.all():
                self._source = None

    # -- views -------------------------------------------------------------

    @property
    def num_polys(self) -> int:
        return self.stack.shape[0]

    @property
    def n(self) -> int:
        return self.stack.shape[2]

    def c0_rows(self, lo: int = 0, hi: "int | None" = None) -> np.ndarray:
        """``(hi - lo, n)`` view of the c0 rows ``[lo, hi)``, default all
        (no copy; materializes a lazy arena's tiles under the range)."""
        hi = self.num_polys if hi is None else hi
        self._ensure_rows(lo, hi)
        return self.stack[lo:hi, 0]

    def ciphertext(self, j: int) -> Ciphertext:
        """Materialize row ``j`` back into a ciphertext object (copies,
        so callers can't corrupt the arena)."""
        self._ensure_rows(j, j + 1)
        return unstack_ciphertext(self.ring, self.params, self.stack[j])

    # -- fused kernels -----------------------------------------------------

    def hom_add_broadcast(
        self,
        query: np.ndarray,
        *,
        out: "np.ndarray | None" = None,
        tile_bytes: "int | None" = None,
    ) -> np.ndarray:
        """Hom-Add one query ciphertext — or a ``(V, 2, n)`` stack of
        them — against *every* arena row.

        Returns ``(num_polys, 2, n)`` for a single query row and
        ``(V, num_polys, 2, n)`` for a stack.  The product streams
        through cache-sized ``(poly_tile x variant_tile)`` blocks with
        an in-place modular fold per tile — one pass over DRAM for the
        output instead of two (add, then re-read to fold) — so the
        kernel stays fast where the one-shot broadcast was
        bandwidth-bound.  ``out`` recycles a result buffer across calls
        (the steady-state serving shape); ``tile_bytes`` overrides the
        built-in per-tile output budget.
        """
        query = np.asarray(query)
        single = query.ndim == 2
        q_stack = query[None] if single else query
        q = self.params.q
        num_variants = q_stack.shape[0]
        num_polys, n = self.num_polys, self.n
        if out is not None:
            out = np.asarray(out)
            expected = (
                (num_polys, 2, n) if single else (num_variants, num_polys, 2, n)
            )
            if out.shape != expected or out.dtype != np.int64:
                raise ValueError(
                    f"out must be int64 of shape {expected}, "
                    f"got {out.dtype} {out.shape}"
                )
            full = out[None] if single else out
        else:
            full = np.empty((num_variants, num_polys, 2, n), dtype=np.int64)
        tile_bytes = _DEFAULT_TILE_BYTES if tile_bytes is None else int(tile_bytes)
        if tile_bytes <= 0:
            raise ValueError(
                f"tile byte budget must be positive, got {tile_bytes}"
            )
        poly_tile, variant_tile = _tile_shape(num_polys, num_variants, n, tile_bytes)
        pow2 = q & (q - 1) == 0
        for p0 in range(0, num_polys, poly_tile):
            p1 = min(p0 + poly_tile, num_polys)
            self._ensure_rows(p0, p1)
            db_tile = self.stack[p0:p1]
            for v0 in range(0, num_variants, variant_tile):
                v1 = min(v0 + variant_tile, num_variants)
                block = full[v0:v1, p0:p1]
                np.add(db_tile[None], q_stack[v0:v1, None], out=block)
                if pow2:
                    np.bitwise_and(block, q - 1, out=block)
                else:
                    np.subtract(block, q, out=block, where=block >= q)
        if single:
            return out if out is not None else full[0]
        return full

    def phases(
        self, sk: "SecretKey", lo: int = 0, hi: "int | None" = None
    ) -> np.ndarray:
        """``(hi - lo, n)`` decryption phases ``c0 + c1 * s mod q`` of
        rows ``[lo, hi)`` (default: all), in the kernel's
        :func:`phase_dtype`.  Each tile is computed once per (arena,
        secret key) and only the tiles under the range are built, so a
        shard's task never pays for the whole database; the result is
        the cached array (full range) or a view of it.

        Decryption is linear, so the phase of any Hom-Add result is the
        sum of these rows and the query-side phases — which is what
        lets :func:`fused_decrypt_flags` decrypt the whole db x variant
        grid with broadcast adds instead of per-block multiplies.
        """
        hi = self.num_polys if hi is None else hi
        with self._lock:
            if self._phase_rows is None or self._phase_sk is not sk:
                self._phase_rows = np.empty(
                    (self.num_polys, self.n), dtype=phase_dtype(self.params.q)
                )
                self._phase_built = np.zeros(self._num_tiles, dtype=bool)
                self._phase_sk = sk
            built = self._phase_built
            if built is not None:
                q = self.params.q
                tile = self._build_tile
                for t in self._tiles_over(lo, hi):
                    if built[t]:
                        continue
                    r0, r1 = t * tile, min((t + 1) * tile, self.num_polys)
                    self._ensure_rows(r0, r1)
                    c1_s = mul_rows_by_poly(self.ring, self.stack[r0:r1, 1], sk.s)
                    self._phase_rows[r0:r1] = add_mod_q(
                        self.stack[r0:r1, 0], c1_s, q
                    )
                    built[t] = True
                if built.all():
                    self._phase_built = None
            rows = self._phase_rows
            if lo == 0 and hi == self.num_polys:
                return rows
            return rows[lo:hi]


# ---------------------------------------------------------------------------
# Batch decryption / flag extraction over arbitrary stacked rows
# ---------------------------------------------------------------------------


def decrypt_batch(
    ring: RingContext,
    params: "BFVParams",
    c0_rows: np.ndarray,
    c1_rows: np.ndarray,
    sk: "SecretKey",
) -> np.ndarray:
    """Decrypt a stack of size-2 ciphertext rows in one batched pass.

    ``c0_rows`` / ``c1_rows`` are ``(m, n)``; all ``c1 * s`` products go
    through a single stacked NTT pipeline (vectorized backend) instead
    of one ring multiply per ciphertext.  Returns the ``(m, n)``
    plaintext coefficient rows, bit-identical to ``m`` scalar
    :meth:`~repro.he.bfv.BFVContext.decrypt` calls.
    """
    q, t = params.q, params.t
    phase = add_mod_q(c0_rows, mul_rows_by_poly(ring, c1_rows, sk.s), q)
    return scale_rows_to_plaintext(center_rows(phase, q), q, t)


def flags_batch(plaintext_rows: np.ndarray, chunk_width: int) -> np.ndarray:
    """Vectorized all-ones flag extraction: a bool matrix of the same
    shape marking every coefficient equal to ``2**w - 1`` (the match
    value of :func:`repro.core.match_polynomial.match_value`)."""
    return plaintext_rows == (1 << chunk_width) - 1


def _find_set(flags: np.ndarray, end: int, cap: int) -> "List[int] | None":
    """The set flags in ``flags[:end]`` (``flags[end]`` set) by at most
    ``cap`` short-circuiting ``argmax`` scans, or ``None``."""
    found, pos = [], 0
    for _ in range(cap):
        pos += int(flags[pos : end + 1].argmax())
        if pos == end:
            return found
        found.append(pos)
        pos += 1
    return None


def _confirm_candidates(hits, keys, db_phases, shifted, row_map, width) -> None:
    """The ``q = 2**32`` kernel's exact test of its screened candidates
    (keys ``v * P * n + j * n + c``): one gather of their phases, then
    each variant's confirmed indices join its ``hits``.  Everything this
    allocates is sized by the candidates, the decrypted answer."""
    num_polys, cols = db_phases.shape
    # sorted keys order the candidates by variant, then index
    owner, at = np.divmod(np.sort(keys), max(1, num_polys * cols))
    j, c = np.divmod(at, max(1, cols))
    kept = db_phases[j, c] + shifted[row_map[owner, j], c] < width
    owner, at = owner[kept], at[kept]
    cuts = np.searchsorted(owner, np.arange(len(hits) + 1))
    for v, parts in enumerate(hits):
        part = at[cuts[v] : cuts[v + 1]]
        if not parts:
            parts.append(part)
        elif len(part):  # exact blocks and candidates: interleave
            hits[v] = [np.sort(np.concatenate(parts + [part]))]


def _block_sum(rows_from, rows, db_tile, out) -> None:
    """Flat ``out = rows_from[rows] + db_tile`` over a ``(v, p)`` block
    (``"clip"`` only selects numpy's unbuffered write into ``out``)."""
    v, p = rows.shape
    np.take(rows_from, rows, axis=0, mode="clip", out=out.reshape(v, p, -1))
    by_variant = out.reshape(v, -1)
    np.add(by_variant, db_tile.reshape(-1), out=by_variant)


def fused_decrypt_flags(
    db_phases: np.ndarray,
    query_phases: np.ndarray,
    row_map: np.ndarray,
    params: "BFVParams",
    chunk_width: int,
) -> List[np.ndarray]:
    """Match flags for a whole db x variant Hom-Add grid from
    precomputed phases, as the sorted indices of the set ones.

    ``db_phases`` is ``(P, n)`` (:meth:`CiphertextArena.phases`),
    ``query_phases`` is ``(R, n)`` (one row per distinct encrypted
    query polynomial) and ``row_map`` is ``(V, P)`` mapping each
    (variant, polynomial) pair to its query row.  Returns one array per
    variant: the ascending flat indices ``j * n + c`` of the
    coefficients whose Hom-Add result decrypts to the match value —
    ``np.flatnonzero`` of that variant's ``(P, n)`` slice of the flag
    grid, bit-identical to decrypting every pair's result and comparing
    against the match polynomial.  Set flags are rare (a non-matching
    coefficient is all-ones with probability ``1/t``), so the grid
    itself is never built: a block of variants is compared against one
    ``(tile_polys, n)`` tile at a time, into scratch that the whole call
    reuses.  The scratch depends on the operand shapes only.  The
    decrypted answer — the returned hits, the finder's scans
    (:func:`_find_set`) and the candidate-confirm gathers
    (:func:`_confirm_candidates`) — is what varies with the query, and
    it stays with the phases on the key holder's side.

    Index generation is a range test on the phase.  A phase ``p`` in
    ``[0, q)`` decrypts to ``round(t*p/q) mod t`` (centering ``p``
    first moves the quotient by exactly ``t``, so it drops out), and
    for the match value ``1 <= m < t`` that equals ``m`` iff
    ``m*q <= t*p + q//2 < (m+1)*q``, i.e. iff ``p`` lies in
    ``[lo, hi)`` with ``lo = ceil((m*q - q//2) / t)`` and
    ``hi = ceil(((m+1)*q - q//2) / t)``.  ``0 < lo <= hi <= q``, so the
    interval never wraps and ``(p - lo) mod q < hi - lo`` tests it
    with one compare.  ``lo`` is folded into the small query side once
    per call; per variant and tile the exact test is one gather, one
    add, one fold mod ``q`` and one compare.  Nothing is multiplied by ``t``,
    so every intermediate is below ``2q <= 2**63``.

    At ``q = 2**32`` both phase stacks are ``uint32`` (int64 rows in
    ``[0, q)`` are narrowed on entry), wrap-around *is* the fold, and a
    block is first screened on its 16-bit high halves, which pass every
    hit (``docs/perf.md``); up to :data:`_FLAG_SCAN_CAP` scans collect
    the candidates, which one gather confirms.  A block with more (a hit
    storm) and every later block of the call take the exact test.

    Raises ``ValueError`` unless ``0 < 2**chunk_width - 1 < t`` and
    ``q <= 2**62``, when ``uint32`` rows meet any other modulus or rows
    of another type leave ``[0, q)``, and ``IndexError`` for a
    ``row_map`` entry outside ``query_phases``.
    """
    q, t = params.q, params.t
    match = (1 << chunk_width) - 1
    if not 0 < match < t:
        raise ValueError(
            f"match value 2**{chunk_width} - 1 must lie in [1, t) for t={t}"
        )
    if q > 1 << 62:
        raise ValueError(f"phase sums need 2q <= 2**63, got q={q}")
    lo = -((q // 2 - match * q) // t)
    hi = -((q // 2 - (match + 1) * q) // t)
    width = hi - lo
    num_variants, num_polys = row_map.shape
    if row_map.size and not (
        0 <= row_map.min() and row_map.max() < len(query_phases)
    ):
        raise IndexError("row_map entry outside query_phases")
    db_phases = _as_phase_rows(db_phases, q)
    query_phases = _as_phase_rows(query_phases, q)
    narrow = db_phases.dtype == np.uint32
    if narrow:
        # 0 < lo < q and width <= q // 2 + 1 (t >= 2): both fit uint32
        shifted = query_phases - np.uint32(lo)  # wraps mod 2**32
        # x < width needs (hi16(D) + hi16(S) + 1) mod 2**16 < W + 2
        screen_width = np.uint16(((width - 1) >> 16) + 2)
        width = np.uint32(width)
    else:
        shifted = query_phases - lo
        np.add(shifted, q, out=shifted, where=shifted < 0)
    pow2 = q & (q - 1) == 0
    cols = db_phases.shape[1]
    span = num_polys * cols
    tile = max(1, min(num_polys, _FLAG_TILE_CELLS // max(1, cols)))
    block = max(1, min(num_variants, _FLAG_BLOCK_VARIANTS))
    cells = block * tile * cols
    sums = np.empty(tile * cols, dtype=db_phases.dtype)
    flags = np.empty(cells + 1, dtype=bool)
    wrapped = None if pow2 else np.empty(tile * cols, dtype=bool)
    if narrow:
        high = np.empty((num_polys, cols), dtype=np.uint16)
        np.right_shift(db_phases, 16, out=high, casting="unsafe")
        query_high = np.empty(shifted.shape, dtype=np.uint16)
        np.right_shift(shifted, 16, out=query_high, casting="unsafe")
        np.add(query_high, np.uint16(1), out=query_high)  # wraps mod 2**16
        screened = np.empty(cells, dtype=np.uint16)
        blocks = -(-num_polys // tile) * -(-num_variants // block)
        candidates = np.empty(blocks * _FLAG_SCAN_CAP, dtype=np.intp)
        count = 0
    screening = narrow
    hits: List[List[np.ndarray]] = [[] for _ in range(num_variants)]
    for p0 in range(0, num_polys, tile):
        p1 = min(p0 + tile, num_polys)
        tile_cells = (p1 - p0) * cols
        for v0 in range(0, num_variants, block):
            v1 = min(v0 + block, num_variants)
            rows, end = row_map[v0:v1, p0:p1], (v1 - v0) * tile_cells
            if screening:
                _block_sum(query_high, rows, high[p0:p1], screened[:end])
                np.less(screened[:end], screen_width, out=flags[:end])
                flags[end] = True
                found = _find_set(flags, end, _FLAG_SCAN_CAP)
                if found is not None:
                    # key v * P * n + j * n + c of the cell at flat ``at``
                    base, skip = v0 * span + p0 * cols, span - tile_cells
                    for at in found:
                        candidates[count] = base + at + at // tile_cells * skip
                        count += 1
                    continue
                screening = False  # a hit storm: the rest of the call is exact
            # the exact test, a variant at a time: its tile stays in cache
            buf, out = sums[:tile_cells], flags[:tile_cells]
            for v in range(v0, v1):
                _block_sum(shifted, rows[v - v0 : v - v0 + 1], db_phases[p0:p1], buf)
                if narrow:
                    np.less(buf, width, out=out)
                elif pow2:
                    np.bitwise_and(buf, q - 1, out=buf)
                    np.less(buf, width, out=out)
                else:
                    # s in [0, 2q): (s mod q) < width iff s < width or
                    # 0 <= s - q < width; the unsigned view makes the
                    # second test one compare (s - q < 0 reads >= 2**63)
                    np.less(buf, width, out=out)
                    np.subtract(buf, q, out=buf)
                    np.less(buf.view(np.uint64), np.uint64(width), out=wrapped[:tile_cells])
                    np.logical_or(out, wrapped[:tile_cells], out=out)
                found = np.flatnonzero(out)
                if p0:
                    found += p0 * cols
                hits[v].append(found)
    if narrow:
        _confirm_candidates(
            hits, candidates[:count], db_phases, shifted, row_map, width
        )
    return [
        np.concatenate(parts) if len(parts) > 1
        else parts[0] if parts else np.empty(0, dtype=np.intp)
        for parts in hits
    ]


# ---------------------------------------------------------------------------
# Query-side arena
# ---------------------------------------------------------------------------


def query_row_layout(
    variants: Sequence, n: int, poly_indices: Sequence[int]
) -> np.ndarray:
    """``(V, len(poly_indices))`` query row of every (variant, database
    polynomial) pair: the row :class:`QueryArena` stacks, the row a
    fresh request encrypts (and draws from the client's RNG for) and the
    key it is cached under.

    Variant ``v`` against polynomial ``j`` reads its phase's pattern at
    ``(j*n + c - rotation) mod span``, so the encrypted row is named by
    ``(phase, shift)`` with ``shift = (j*n - rotation) mod span``.  A
    phase's variants are its ``span`` rotations in order, starting at
    index ``v - rotation``, and against polynomial 0 they read its
    ``span`` shifts, each once: row ``r`` is what variant ``r`` adds to
    polynomial 0, ``(variants[r].phase, -variants[r].rotation mod
    span)`` — one row per variant, in the order the first polynomial
    asks for them — and ``row = v - rotation + (rotation - j*n) mod
    span``."""
    rotation = np.asarray([v.rotation for v in variants], dtype=np.intp)[:, None]
    span = np.asarray([v.span for v in variants], dtype=np.intp)[:, None]
    first = np.arange(len(variants))[:, None] - rotation
    polys = np.asarray(poly_indices, dtype=np.intp)
    return first + (rotation - polys * n) % span


class QueryArena:
    """Stacked query rows for one prepared query.

    One row per *distinct* encrypted query polynomial, which is one per
    variant (:func:`query_row_layout`), whatever the database size.
    ``rows`` holds them in that order: under ``CLIENT_DECRYPT`` the
    ``(n,)`` phase rows ``delta * m - e`` of the key holder's secret-key
    encryption (:meth:`~repro.he.bfv.BFVContext.fresh_phase_rows` —
    what the serving cache holds), which :meth:`phases` reads as they
    are; under ``SERVER_DETERMINISTIC`` the ``(2, n)`` rows of a
    ciphertext (:func:`stack_ciphertext`), whose ``c0`` the comparator
    reads.
    """

    def __init__(
        self,
        ring: RingContext,
        params: "BFVParams",
        variants: Sequence,
        rows: Sequence[np.ndarray],
    ):
        self.ring = ring
        self.params = params
        if len(rows) != len(variants):
            raise ValueError(
                f"expected {len(variants)} query rows, got {len(rows)}"
            )
        self.variants = variants
        self.num_variants = len(variants)
        #: rows as handed: (num_rows, n) phases or (num_rows, 2, n)
        #: ciphertexts, any integer dtype
        self.rows = (
            np.stack(rows) if len(rows) else np.empty((0, ring.n), dtype=np.int64)
        )

    @property
    def c0(self) -> np.ndarray:
        """``(num_rows, n)`` ``c0`` rows of ciphertext rows — what the
        comparator adds to the database's."""
        return self.rows[:, 0]

    def row_map(self, poly_indices: Sequence[int]) -> np.ndarray:
        """``(V, P)`` row index per (variant, global polynomial)."""
        return query_row_layout(self.variants, self.ring.n, poly_indices)

    def phases(self) -> np.ndarray:
        """``(num_rows, n)`` decryption phases of the query rows in the
        kernel's :func:`phase_dtype`: the phase rows as handed (no copy
        at ``q = 2**32``), no product with the secret key."""
        return self.rows.astype(phase_dtype(self.params.q), copy=False)


def stack_ciphertext(ct: Ciphertext) -> np.ndarray:
    """One ciphertext's ``(2, n)`` arena row (copies; the row outlives
    the object)."""
    if ct.size != 2:
        raise ValueError("arena rows require size-2 ciphertexts")
    return np.stack([ct.c0.coeffs, ct.c1.coeffs])


def unstack_ciphertext(
    ring: RingContext, params: "BFVParams", row: np.ndarray
) -> Ciphertext:
    """The inverse of :func:`stack_ciphertext`: one ``(2, n)`` arena row
    back into a ciphertext object (copies, so callers can't corrupt the
    row's owner)."""
    return Ciphertext(
        params, RingPoly(ring, row[0].copy()), RingPoly(ring, row[1].copy())
    )
