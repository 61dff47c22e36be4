"""Shared test oracles.

:class:`ReferenceBackend` is the ring arithmetic the repo shipped with
— one native NTT or the three-prime CRT convolution, big-int (object
dtype) reductions — moved here verbatim when ``src/`` kept only
:class:`~repro.he.backend.VectorizedBackend`.  No constructor takes it:
:func:`reference_arithmetic` swaps it onto the rings of a context or
key generator built the normal way (rings compare by ``(n, q)``, so
polynomials and keys of either arithmetic interoperate), and every
product of the production backend must equal its product bit for bit.

:class:`PerPairAdder` is the differential oracle for the fused arena
kernels: the same CPU additions as
:class:`~repro.core.matcher.CPUAdditionBackend`, but it declines the
fused kernels, so every layer runs one genuine ``hom_add`` per
(polynomial, variant) pair — the path stateful backends such as the
in-flash :class:`~repro.ssd.device.IFPAdditionBackend` take.  Engines
receive it through their ordinary backend parameters
(``backend=`` / ``addition_backend=`` / ``backend_factory=``).

:func:`scaled_decrypt_flags` and :func:`prefix_sum_offsets` are the
index-generation tail computed the long way — full BFV plaintext
scaling of every coefficient, and a dense prefix sum over every flag —
which :func:`repro.he.arena.fused_decrypt_flags` (a range test on the
phase) and :meth:`repro.core.matcher.ResultDecoder.decode_hits`
(a run rule on the set indices) must reproduce bit for bit.
:func:`int64_decrypt_flags` is that range test over int64 rows, the
body the ``uint32`` kernel replaced at ``q = 2**32``,
:func:`uint32_decrypt_flags` that tiled ``uint32`` kernel, which the
16-bit high-half screen replaced in turn, and
:func:`dense_decrypt_flags` the whole kernel as it was when it wrote
the dense ``(V, P, n)`` grid; the kernel now returns the sorted indices
of the set flags, which :func:`dense_flags` turns back into a grid and
:func:`hits_of_blocks` builds from per-block flag vectors.

:func:`count_transforms` records every transform a block runs — limb
NTTs and the small-operand product's FFTs — and
:func:`numpy_allocations` every numpy array allocation, with the frame
that made it.

:func:`coefficient_pattern` is a query variant's negated pattern laid
out over one database polynomial the long way, one modular index per
coefficient — the row :meth:`repro.core.query.PreparedQuery.row_plaintexts`
gathers for that (variant, polynomial) pair.

:func:`lift_mod` is a polynomial's centered lift reduced into
``[0, m)``, the change of modulus both backends must agree on.

:func:`encrypt_symmetric` is the one-row call of
:meth:`repro.he.bfv.BFVContext.encrypt_symmetric_rows` as a
:class:`~repro.he.bfv.Ciphertext`, and :func:`noise_budget_bits` the
bits of noise budget a ciphertext has left, read off
:meth:`~repro.he.bfv.BFVContext.noise_residual`.

:func:`torus_distance`, :func:`tlwe_phase` and
:func:`gadget_recompose` read TFHE samples back the long way: the
circular distance on the 32-bit torus, the ``b - sum a_i z_i`` phase
of a ring sample, and the inverse of the gadget decomposition.

:func:`seeded_plan` draws a deterministic random
:class:`~repro.faults.FaultPlan` (same seed, same plan) for the chaos
sweeps and the plan round-trip properties.

:func:`paper_secure_params` is a parameter set the product and
encryption tests cover beside ``BFVParams.paper()``: ``n = 2048`` under
a 54-bit NTT prime (the HE standard's 128-bit envelope at that ring
dimension), with the same 16-bit packing.

:func:`per_event_phases_run` is the queueing simulator's event loop as
it was when it rebuilt a request's phase list on every event;
:meth:`repro.ssd.queueing.SsdQueueingSimulator.run` (phases built once
per request) must give the same floats in the same order.
"""

from __future__ import annotations

import contextlib
import ctypes
import heapq
import math
import random
import sys
from typing import Iterable, List, Optional

import numpy as np

from repro.core.matcher import CPUAdditionBackend
from repro.faults import (
    CONN_DROP,
    CORRUPT_FRAME,
    FAULT_KINDS,
    SLOW_SHARD,
    WORKER_CRASH,
    FaultPlan,
    FaultPlanError,
)
from repro.he import backend as poly_backend
from repro.he.arena import (
    _as_phase_rows,
    add_mod_q,
    center_rows,
    scale_rows_to_plaintext,
)
from repro.he.backend import PolyBackend, _is_native_ntt_modulus
from repro.he.ntt import exact_negacyclic_convolution, get_plan
from repro.he.bfv import Ciphertext
from repro.he.params import BFVParams
from repro.he.poly import RingContext, RingPoly
from repro.he.primes import find_ntt_prime
from repro.ssd.queueing import SimulationResult
from repro.tfhe.params import TORUS_MOD
from repro.tfhe.polymath import negacyclic_convolve_small


class ReferenceBackend(PolyBackend):
    """The repo's original exact path, kept as the parity oracle.

    Multiplication is verbatim the pre-backend implementation; only provably-exact vectorizations are
    applied (object-dtype numpy reductions instead of Python list
    comprehensions, per the micro-benchmarks in ``bench_poly.py``).
    """

    name = "reference"

    def __init__(self, n: int, q: int):
        super().__init__(n, q)
        self._plan = get_plan(n, q) if _is_native_ntt_modulus(n, q) else None

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._plan is not None:
            return self._plan.multiply(a, b)
        exact = exact_negacyclic_convolution(a, b)
        return (exact % self.q).astype(np.int64)

    def scalar_mul(self, coeffs: np.ndarray, scalar: int) -> np.ndarray:
        q = self.q
        scalar %= q
        # int64 products overflow once the combined magnitude reaches 2**63.
        if scalar.bit_length() + (q - 1).bit_length() < 63:
            return coeffs * scalar % q
        return (coeffs.astype(object) * scalar % q).astype(np.int64)


def reference_arithmetic(*holders):
    """Put every ring of ``holders`` on a :class:`ReferenceBackend`, in
    place, and return the first holder.  A holder is a ``RingContext``
    or an object built the normal way that keeps its rings in ``ring`` /
    ``plain_ring``: a ``BFVContext``, a ``KeyGenerator``, or a key's
    ``RingPoly`` (every polynomial of one generator shares its ring).
    Exact arithmetic on both sides, so a swapped context draws, encrypts
    and decrypts the same bits — through the big-int path."""
    for holder in holders:
        if isinstance(holder, RingContext):
            rings = [holder]
        else:
            rings = [
                getattr(holder, name)
                for name in ("ring", "plain_ring")
                if hasattr(holder, name)
            ]
        if not rings:
            raise TypeError(f"{holder!r} holds no ring")
        for ring in rings:
            ring.backend = ReferenceBackend(ring.n, ring.q)
    return holders[0]


#: test-parameter label -> what gives holders built the normal way
#: that ring arithmetic (and returns the first)
ARITHMETIC = {
    "vectorized": lambda *holders: holders[0],
    "reference": reference_arithmetic,
}


class PerPairAdder(CPUAdditionBackend):
    supports_fused = False


def per_pair_factory(ctx, shard_id):
    """``backend_factory=`` form for the sharded engine."""
    return PerPairAdder(ctx)


#: adder label -> engine key -> the ``open_session`` kwargs selecting it
ADDER_KWARGS = {
    "fused": {"bfv": {}, "bfv-sharded": {}},
    "object": {
        "bfv": {"addition_backend": PerPairAdder},
        "bfv-sharded": {"backend_factory": per_pair_factory},
    },
}


#: the methods every transform goes through, per transform class (the
#: others are aliases of these or call them): the limb NTTs of the
#: general products and the float64 FFTs of the small-operand ones
_TRANSFORM_LEAVES = {
    poly_backend._FourStepNtt: (
        "forward", "forward_batch_limbmajor",
        "inverse_reduced", "inverse_reduced_limbmajor",
    ),
    poly_backend._StackedNtt: ("_transform",),
    poly_backend.SmallProductFft: ("forward", "inverse"),
}


@contextlib.contextmanager
def count_transforms():
    """Record every transform run inside the block as
    ``(class name, method, limbs, shape of the first array argument)``
    (an FFT counts as one limb; the leading axes of its shape are the
    stacked rows and pieces) — what a test asserts when it says "no
    transform on this path" or "the same transforms whatever the query
    says"."""
    calls = []
    saved = []
    for cls, names in _TRANSFORM_LEAVES.items():
        for name in names:
            original = getattr(cls, name)
            saved.append((cls, name, original))

            def wrapper(self, first, *args, _orig=original, _name=name, **kw):
                limbs = len(self.p) if hasattr(self, "p") else 1
                calls.append(
                    (type(self).__name__, _name, limbs, np.shape(first))
                )
                return _orig(self, first, *args, **kw)

            setattr(cls, name, wrapper)
    try:
        yield calls
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


# -- numpy allocations ---------------------------------------------------------


class _Allocator(ctypes.Structure):
    _fields_ = [("ctx", ctypes.c_void_p), ("malloc", ctypes.c_void_p),
                ("calloc", ctypes.c_void_p), ("realloc", ctypes.c_void_p),
                ("free", ctypes.c_void_p)]


class _Handler(ctypes.Structure):  # numpy's ``PyDataMem_Handler``
    _fields_ = [("name", ctypes.c_char * 127), ("version", ctypes.c_uint8),
                ("allocator", _Allocator)]


_SIGNATURES = {
    "malloc": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t),
    "calloc": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t, ctypes.c_size_t),
    "realloc": (ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_size_t),
}
#: the recorders of the open :func:`numpy_allocations` blocks
_RECORDERS: list = []
#: built once, kept for the life of the process: an array allocated
#: under the handler holds a reference to its capsule and frees through
#: it, so neither may ever go away
_LOGGING_HANDLER: list = []


def _logging_handler():
    """A numpy memory handler (NEP 49) that reports every allocation to
    the innermost open :func:`numpy_allocations` block and then calls
    numpy's default allocator; its ``free`` *is* the default's, so an
    array that outlives the block frees without calling into Python."""
    if _LOGGING_HANDLER:
        return _LOGGING_HANDLER[0]
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    api = ctypes.pythonapi
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    api.PyCapsule_New.restype = ctypes.py_object
    api.PyCapsule_New.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p]
    table = ctypes.cast(
        api.PyCapsule_GetPointer(umath._ARRAY_API, None),
        ctypes.POINTER(ctypes.c_void_p),
    )
    # numpy C-API slots 304 and 306: PyDataMem_SetHandler and
    # PyDataMem_DefaultHandler (stable since numpy 1.22)
    set_handler = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.py_object)(table[304])
    default = ctypes.cast(
        api.PyCapsule_GetPointer(
            ctypes.cast(table[306], ctypes.POINTER(ctypes.py_object))[0],
            b"mem_handler",
        ),
        ctypes.POINTER(_Handler),
    )[0].allocator

    def logging(kind):
        # numpy may allocate with the GIL released: the callback takes
        # it, and the default allocator is called without letting go
        allocate = ctypes.PYFUNCTYPE(*_SIGNATURES[kind])(getattr(default, kind))

        def callback(ctx, *args):
            if _RECORDERS:
                nbytes = args[0] * args[1] if kind == "calloc" else args[-1]
                _RECORDERS[-1](kind, nbytes, sys._getframe(1))
            return allocate(ctx, *args)

        return ctypes.CFUNCTYPE(*_SIGNATURES[kind])(callback)

    callbacks = [logging(kind) for kind in _SIGNATURES]
    handler = _Handler(b"test_allocation_log", 1, _Allocator(
        default.ctx, *(ctypes.cast(cb, ctypes.c_void_p) for cb in callbacks),
        default.free,
    ))
    name = ctypes.c_char_p(b"mem_handler")
    capsule = api.PyCapsule_New(ctypes.addressof(handler), name, None)
    _LOGGING_HANDLER.append((capsule, set_handler, (handler, name, callbacks)))
    return _LOGGING_HANDLER[0]


@contextlib.contextmanager
def numpy_allocations(record):
    """Call ``record(kind, nbytes, frame)`` for every numpy array
    allocation this thread makes inside the block — ``kind`` is
    ``"malloc"``, ``"calloc"`` or ``"realloc"`` and ``frame`` the Python
    frame that was running, which for a ufunc result, ``astype``, fancy
    indexing or ``np.zeros`` alike is the line that asked for it (or a
    frame of numpy's own Python wrappers below it)."""
    capsule, set_handler, _ = _logging_handler()
    _RECORDERS.append(record)
    previous = set_handler(capsule)
    try:
        yield
    finally:
        set_handler(previous)
        _RECORDERS.pop()


def scaled_decrypt_flags(db_phases, query_phases, row_map, params, chunk_width):
    """``(V, P, n)`` match flags by plaintext scaling: center each
    summed phase, compute ``round(t * phase / q) mod t`` (object dtype
    once ``t * phase`` overflows int64) and compare with the all-ones
    value."""
    q, t = params.q, params.t
    match = (1 << chunk_width) - 1
    num_variants, num_polys = row_map.shape
    flags = np.empty((num_variants, num_polys, db_phases.shape[1]), dtype=bool)
    for v in range(num_variants):
        rows = row_map[v]
        if num_polys and (rows == rows[0]).all():
            q_phase = query_phases[rows[0]][None, :]
        else:
            q_phase = query_phases[rows]
        phase = add_mod_q(db_phases, q_phase, q)
        coeffs = scale_rows_to_plaintext(center_rows(phase, q), q, t)
        flags[v] = coeffs == match
    return flags


def int64_decrypt_flags(
    db_phases: np.ndarray,
    query_phases: np.ndarray,
    row_map: np.ndarray,
    params,
    chunk_width: int,
) -> np.ndarray:
    """:func:`repro.he.arena.fused_decrypt_flags` as it was when int64
    was its only element type, verbatim: the range test with an int64
    add, a mask (power-of-two ``q``) or a conditional fold, and a
    compare.  The reference for the ``uint32`` kernel at ``q = 2**32``,
    where it is no longer what runs."""
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
    shifted = query_phases - lo
    np.add(shifted, q, out=shifted, where=shifted < 0)
    shape = db_phases.shape
    flags = np.empty((num_variants,) + shape, dtype=bool)
    buf = np.empty(shape, dtype=np.int64)
    pow2 = q & (q - 1) == 0
    wrapped = None if pow2 else np.empty(shape, dtype=bool)
    for v in range(num_variants):
        rows = row_map[v]
        out = flags[v]
        if num_polys and (rows == rows[0]).all():
            np.add(db_phases, shifted[rows[0]], out=buf)
        else:
            # bounds were checked above; "clip" only selects numpy's
            # unbuffered write into ``buf``
            np.take(shifted, rows, axis=0, out=buf, mode="clip")
            np.add(buf, db_phases, out=buf)
        if pow2:
            np.bitwise_and(buf, q - 1, out=buf)
            np.less(buf, width, out=out)
        else:
            # s in [0, 2q): (s mod q) < width iff s < width or
            # 0 <= s - q < width; the unsigned view makes the second
            # test one compare (a negative s - q reads as >= 2**63)
            np.less(buf, width, out=out)
            np.subtract(buf, q, out=buf)
            np.less(buf.view(np.uint64), np.uint64(width), out=wrapped)
            np.logical_or(out, wrapped, out=out)
    return flags


#: the scratch tile :func:`uint32_decrypt_flags` was written with
_FLAG_TILE_CELLS = 1 << 16


def uint32_decrypt_flags(
    db_phases: np.ndarray,
    query_phases: np.ndarray,
    row_map: np.ndarray,
    params,
    chunk_width: int,
) -> List[np.ndarray]:
    """The ``q = 2**32`` flag kernel as it was before the 16-bit
    high-half screen, verbatim: per variant and ``(tile_polys, n)`` tile
    one ``uint32`` add (one query row broadcast, or the rows gathered
    first), one compare and one ``np.flatnonzero``, with the int64 body
    beside it for every other modulus.  The reference for
    :func:`repro.he.arena.fused_decrypt_flags`, which screens blocks of
    variants on the high halves and confirms the candidates in 32 bits:
    it returns the same sorted hit indices."""
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
        width = np.uint32(width)
    else:
        shifted = query_phases - lo
        np.add(shifted, q, out=shifted, where=shifted < 0)
    pow2 = q & (q - 1) == 0
    cols = db_phases.shape[1]
    tile = max(1, min(num_polys, _FLAG_TILE_CELLS // max(1, cols)))
    buf_tile = np.empty((tile, cols), dtype=db_phases.dtype)
    flag_tile = np.empty((tile, cols), dtype=bool)
    wrapped_tile = None if pow2 else np.empty((tile, cols), dtype=bool)
    # a variant whose polynomials all read one query row adds that row
    # to the tile; any other gathers its rows first
    one_row = (row_map == row_map[:, :1]).all(axis=1)
    hits: List[List[np.ndarray]] = [[] for _ in range(num_variants)]
    for p0 in range(0, num_polys, tile):
        p1 = min(p0 + tile, num_polys)
        db_tile = db_phases[p0:p1]
        buf, out = buf_tile[: p1 - p0], flag_tile[: p1 - p0]
        wrapped = None if pow2 else wrapped_tile[: p1 - p0]
        for v in range(num_variants):
            if one_row[v]:
                np.add(db_tile, shifted[row_map[v, 0]], out=buf)
            else:
                # bounds were checked above; "clip" only selects numpy's
                # unbuffered write into ``buf``
                np.take(shifted, row_map[v, p0:p1], axis=0, out=buf, mode="clip")
                np.add(buf, db_tile, out=buf)
            if narrow:
                np.less(buf, width, out=out)
            elif pow2:
                np.bitwise_and(buf, q - 1, out=buf)
                np.less(buf, width, out=out)
            else:
                # s in [0, 2q): (s mod q) < width iff s < width or
                # 0 <= s - q < width; the unsigned view makes the second
                # test one compare (a negative s - q reads as >= 2**63)
                np.less(buf, width, out=out)
                np.subtract(buf, q, out=buf)
                np.less(buf.view(np.uint64), np.uint64(width), out=wrapped)
                np.logical_or(out, wrapped, out=out)
            found = np.flatnonzero(out)
            if p0:
                found += p0 * cols
            hits[v].append(found)
    if num_polys > tile:
        return [np.concatenate(parts) for parts in hits]
    return [parts[0] if parts else np.empty(0, dtype=np.intp) for parts in hits]


def dense_decrypt_flags(
    db_phases: np.ndarray,
    query_phases: np.ndarray,
    row_map: np.ndarray,
    params,
    chunk_width: int,
) -> np.ndarray:
    """:func:`repro.he.arena.fused_decrypt_flags` as it was when it
    returned the dense ``(V, P, n)`` boolean grid, verbatim — all three
    modulus bodies (``uint32`` wrap at ``q = 2**32``, int64 mask at any
    other power of two, the two-compare fold at odd ``q``), one
    ``(P, n)`` add + compare per variant straight into the output.  The
    differential oracle for the kernel that returns the set indices:
    ``hits[v] == np.flatnonzero(dense[v])``."""
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
    shape = db_phases.shape
    flags = np.empty((num_variants,) + shape, dtype=bool)
    buf = np.empty(shape, dtype=db_phases.dtype)
    narrow = db_phases.dtype == np.uint32
    if narrow:
        # 0 < lo < q and width <= q // 2 + 1 (t >= 2): both fit uint32
        shifted = query_phases - np.uint32(lo)  # wraps mod 2**32
        width = np.uint32(width)
    else:
        shifted = query_phases - lo
        np.add(shifted, q, out=shifted, where=shifted < 0)
    pow2 = q & (q - 1) == 0
    wrapped = None if pow2 else np.empty(shape, dtype=bool)
    for v in range(num_variants):
        rows = row_map[v]
        out = flags[v]
        if num_polys and (rows == rows[0]).all():
            np.add(db_phases, shifted[rows[0]], out=buf)
        else:
            # bounds were checked above; "clip" only selects numpy's
            # unbuffered write into ``buf``
            np.take(shifted, rows, axis=0, out=buf, mode="clip")
            np.add(buf, db_phases, out=buf)
        if narrow:
            np.less(buf, width, out=out)
        elif pow2:
            np.bitwise_and(buf, q - 1, out=buf)
            np.less(buf, width, out=out)
        else:
            # s in [0, 2q): (s mod q) < width iff s < width or
            # 0 <= s - q < width; the unsigned view makes the second
            # test one compare (a negative s - q reads as >= 2**63)
            np.less(buf, width, out=out)
            np.subtract(buf, q, out=buf)
            np.less(buf.view(np.uint64), np.uint64(width), out=wrapped)
            np.logical_or(out, wrapped, out=out)
    return flags


def dense_flags(hits, num_polys: int, n: int) -> np.ndarray:
    """The ``(V, P, n)`` boolean grid whose set flags are ``hits`` (per
    variant, flat indices ``j * n + c``) — the inverse of what the hit
    kernels and shard tasks return, for tests that compare block by
    block."""
    grid = np.zeros((len(hits), num_polys * n), dtype=bool)
    for v, found in enumerate(hits):
        grid[v, found] = True
    return grid.reshape(len(hits), num_polys, n)


def hits_of_blocks(flags_by_block, num_variants: int, n: int):
    """Per-block flag vectors, ``{(variant, poly): (n,) bool}``, in the
    form every search cell returns and ``ResultDecoder.decode_hits``
    reads: per variant, the sorted flat indices ``j * n + c`` of the set
    flags.  A block that is absent has no set flag."""
    found = [[] for _ in range(num_variants)]
    for (v, j), flags in sorted(flags_by_block.items()):
        found[v].append(np.flatnonzero(flags) + j * n)
    return [
        np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        for parts in found
    ]


def prefix_sum_offsets(decoder, variant, flags, prepared):
    """Match offsets of one variant from its dense flag vector:
    ``run[g]`` is True when ``flags[g : g + span]`` are all True, found
    as a windowed difference of the prefix sum."""
    w = decoder.chunk_width
    span = variant.span
    o = variant.query_bit_offset
    y = prepared.bit_length
    total = len(flags)
    if span == 1:
        run = flags
    elif span > total:
        return np.empty(0, dtype=np.int64)
    else:
        sums = np.cumsum(flags, dtype=np.int64)
        window = sums[span - 1 :].copy()
        window[1:] -= sums[: total - span]
        run = np.zeros(total, dtype=bool)
        run[: total - span + 1] = window == span
    starts = np.nonzero(run)[0]
    starts = starts[(starts - variant.rotation) % span == 0]
    offsets = starts * w - o
    offsets = offsets[(offsets >= 0) & (offsets + y <= decoder.db_bit_length)]
    return offsets.astype(np.int64)


def coefficient_pattern(variant, n: int, poly_chunk_base: int) -> np.ndarray:
    """``variant``'s negated pattern over the ``n`` coefficients of the
    database polynomial whose first chunk has global index
    ``poly_chunk_base``: coefficient ``i`` holds pattern chunk
    ``(poly_chunk_base + i - rotation) mod span``."""
    idx = (poly_chunk_base + np.arange(n) - variant.rotation) % variant.span
    return variant.pattern_chunks[idx]


def lift_mod(poly, new_modulus: int) -> np.ndarray:
    """Centered lift of ``poly`` reduced into ``[0, new_modulus)``."""
    return poly.centered() % new_modulus


def encrypt_symmetric(ctx, pt, sk) -> Ciphertext:
    """Secret-key encryption of one plaintext: a one-row block."""
    row = ctx.encrypt_symmetric_rows(pt.poly.coeffs[None], sk)[0]
    c0, c1, _ = row.astype(np.int64)
    return Ciphertext(ctx.params, RingPoly(ctx.ring, c0), RingPoly(ctx.ring, c1))


def noise_budget_bits(ctx, ct, sk) -> float:
    """Remaining noise budget in bits (<= 0 means decryption may fail)."""
    half_delta = ctx.params.delta / 2
    residual = ctx.noise_residual(ct, sk)
    return math.log2(half_delta) - (math.log2(residual) if residual else 0.0)


def torus_distance(a: int, b: int) -> int:
    """Circular distance ``|a - b|`` on the 32-bit torus."""
    diff = (int(a) - int(b)) % TORUS_MOD
    return min(diff, TORUS_MOD - diff)


def tlwe_phase(sample, key) -> np.ndarray:
    """``b - sum a_i z_i`` — message polynomial plus noise."""
    phase = sample.b.copy()
    for p in range(sample.k):
        phase = (phase - negacyclic_convolve_small(key.z[p], sample.a[p])) % TORUS_MOD
    return phase


def gadget_recompose(digits, bg_bit: int) -> np.ndarray:
    """Inverse of :func:`repro.tfhe.polymath.gadget_decompose` up to
    truncation error."""
    total = np.zeros(len(digits[0]), dtype=np.int64)
    for i, digit in enumerate(digits, start=1):
        total = (total + (digit << (32 - i * bg_bit))) % TORUS_MOD
    return total


def seeded_plan(
    seed: int,
    *,
    requests: int = 32,
    shards: int = 2,
    faults: int = 4,
    kinds: Optional[Iterable[str]] = None,
) -> FaultPlan:
    """``faults`` events drawn from ``kinds`` with ordinals below
    ``requests`` (shard-site ordinals are kept small since each request
    fans out to every shard).  Same seed, same plan, byte for byte."""
    rng = random.Random(seed)
    pool = tuple(kinds) if kinds is not None else FAULT_KINDS
    for kind in pool:
        if kind not in FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {kind!r}")
    plan = FaultPlan()
    for _ in range(faults):
        kind = rng.choice(pool)
        at = rng.randrange(max(1, requests))
        if kind == WORKER_CRASH:
            plan = plan.worker_crash(at, shard=rng.randrange(max(1, shards)))
        elif kind == SLOW_SHARD:
            plan = plan.slow_shard(
                at,
                shard=rng.randrange(max(1, shards)),
                delay=round(rng.uniform(0.005, 0.05), 4),
            )
        elif kind == CONN_DROP:
            plan = plan.connection_drop(at)
        elif kind == CORRUPT_FRAME:
            plan = plan.corrupt_frame(at, seed=rng.randrange(1 << 16))
        else:
            plan = plan.shed_storm(at, count=rng.randint(1, 3))
    return plan


def paper_secure_params() -> BFVParams:
    """``n = 2048``, a 54-bit NTT prime ``q``, ``t = 2**16``."""
    return BFVParams(n=2048, q=find_ntt_prime(54, 2048), t=1 << 16, name="secure-n2048")


def per_event_phases_run(sim):
    """Drain ``sim``'s submitted requests through the phase-granular
    event loop, calling ``sim._phases(req)`` at every event."""
    channel_free, die_free, channel_busy, die_busy = {}, {}, {}, {}
    done = []
    makespan = 0.0
    events = [(arrival, seq, req, 0) for arrival, seq, req in sim._pending]
    sim._pending.clear()
    heapq.heapify(events)
    next_seq = sim._seq
    while events:
        ready, _, req, phase_idx = heapq.heappop(events)
        phases = sim._phases(req)
        resource, duration = phases[phase_idx]
        if resource == "channel":
            start = max(ready, channel_free.get(req.channel, 0.0))
            channel_free[req.channel] = start + duration
            channel_busy[req.channel] = channel_busy.get(req.channel, 0.0) + duration
        else:
            dkey = (req.channel, req.die)
            start = max(ready, die_free.get(dkey, 0.0))
            die_free[dkey] = start + duration
            die_busy[dkey] = die_busy.get(dkey, 0.0) + duration
        finish = start + duration
        if phase_idx == 0:
            req.start = start
        if phase_idx + 1 < len(phases):
            heapq.heappush(events, (finish, next_seq, req, phase_idx + 1))
            next_seq += 1
        else:
            req.finish = finish
            makespan = max(makespan, finish)
            done.append(req)
    return SimulationResult(
        requests=done, makespan=makespan, channel_busy=channel_busy, die_busy=die_busy
    )
