"""Spawn-safe shard worker process for the ``process`` serve executor.

A worker owns one shard's rows ``[start, stop)`` of the shared
ciphertext arena.  It is launched by
:class:`repro.serve.executor.ProcessShardExecutor` with a picklable
:class:`ShardWorkerSpec` — parameters, backend name and key/comparator
material only, never coefficient data — and attaches the database by
:class:`~repro.he.arena.SharedArenaHandle` (shm name + shape), so
outsourcing a 100 MB database costs each worker a page-table mapping,
not a pickle.

Wire protocol (one duplex pipe per worker, parent -> child):

``("attach", handle)``
    (Re-)attach the database arena.  No reply; pipe FIFO ordering
    guarantees the attach lands before any task that needs it.
``("task", task_id, query_stack, row_map, row_residue)``
    Run one (query, shard) unit.  ``query_stack`` is the query arena's
    ``(R, 2, n)`` rows, ``row_map`` the ``(V, shard_polys)`` local row
    map, ``row_residue`` the per-row residues.  Replies
    ``("ok", task_id, flags)`` with the shard's ``(V, shard_polys, n)``
    bool flag-grid slice, or ``("err", task_id, message)``.
``("ping",)``
    Liveness probe; replies ``("pong", shard_id)``.
``("crash",)``
    Fault injection for the crash-recovery tests: the worker dies
    immediately via ``os._exit`` (no cleanup, like a real crash).
``("stop",)``
    Clean shutdown.  EOF on the pipe means the same thing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..he.arena import (
    CiphertextArena,
    SharedArenaHandle,
    add_mod_q,
    fused_decrypt_flags,
    mul_rows_by_poly,
)
from ..he.bfv import BFVContext
from ..he.keys import PublicKey, SecretKey
from ..he.params import BFVParams
from ..he.poly import RingPoly
from ..core.match_polynomial import DeterministicComparator
from ..core.matcher import comparator_flag_grid


@dataclass(frozen=True)
class ShardWorkerSpec:
    """Everything a worker needs to rebuild its shard state after spawn.

    Key material travels as raw coefficient arrays (the dataclasses in
    :mod:`repro.he.keys` hold ring-bound polynomials, which the child
    re-wraps in its own :class:`~repro.he.poly.RingContext`).  The
    public key / comparator seed are only present in
    ``SERVER_DETERMINISTIC`` mode.
    """

    shard_id: int
    start: int
    stop: int
    params: BFVParams
    poly_backend: Optional[str]
    chunk_width: int
    sk_coeffs: np.ndarray
    comparator_seed: Optional[int] = None
    pk0_coeffs: Optional[np.ndarray] = None
    pk1_coeffs: Optional[np.ndarray] = None

    @property
    def num_polynomials(self) -> int:
        return self.stop - self.start


class _QueryRows:
    """Duck-typed stand-in for :class:`~repro.he.arena.QueryArena` over
    the wire format — just the fields the shard kernels touch."""

    def __init__(self, stack: np.ndarray, row_residue: np.ndarray):
        self.stack = stack
        self.row_residue = row_residue

    @property
    def c0(self) -> np.ndarray:
        return self.stack[:, 0]

    @property
    def c1(self) -> np.ndarray:
        return self.stack[:, 1]


class _WorkerState:
    """Per-process shard state: HE context, keys, attached arena."""

    def __init__(self, spec: ShardWorkerSpec):
        self.spec = spec
        self.ctx = BFVContext(spec.params, backend=spec.poly_backend)
        ring = self.ctx.ring
        self.sk = SecretKey(
            spec.params, RingPoly(ring, np.asarray(spec.sk_coeffs, dtype=np.int64))
        )
        self.comparator: Optional[DeterministicComparator] = None
        if spec.comparator_seed is not None:
            pk = PublicKey(
                spec.params,
                RingPoly(ring, np.asarray(spec.pk0_coeffs, dtype=np.int64)),
                RingPoly(ring, np.asarray(spec.pk1_coeffs, dtype=np.int64)),
            )
            self.comparator = DeterministicComparator(
                self.ctx, pk, spec.comparator_seed, spec.chunk_width
            )
        self.arena: Optional[CiphertextArena] = None
        #: every arena ever attached — the mappings must outlive any
        #: in-flight task that might still read them
        self._attached = []

    def attach(self, handle: SharedArenaHandle) -> None:
        arena = CiphertextArena.attach_shared(
            self.ctx.ring, self.spec.params, handle, self.spec.start, self.spec.stop
        )
        self._attached.append(arena)
        self.arena = arena

    def run(
        self,
        query_stack: np.ndarray,
        row_map: np.ndarray,
        row_residue: np.ndarray,
    ) -> np.ndarray:
        """The same broadcast kernels the thread executor runs in
        process — shard phases against query phases, or the batched
        deterministic comparator."""
        if self.arena is None:
            raise RuntimeError("no arena attached")
        query = _QueryRows(
            np.asarray(query_stack, dtype=np.int64),
            np.asarray(row_residue, dtype=np.intp),
        )
        row_map = np.asarray(row_map, dtype=np.intp)
        spec = self.spec
        if self.comparator is not None:
            polys = np.arange(spec.start, spec.stop, dtype=np.int64)
            return comparator_flag_grid(
                self.comparator, self.arena, query, row_map, polys
            )
        q = spec.params.q
        query_phases = add_mod_q(
            query.c0, mul_rows_by_poly(self.ctx.ring, query.c1, self.sk.s), q
        )
        return fused_decrypt_flags(
            self.arena.phases(self.sk),
            query_phases,
            row_map,
            spec.params,
            spec.chunk_width,
        )


def shard_worker_main(conn, spec: ShardWorkerSpec) -> None:
    """Child-process entry point: serve tasks until stop/EOF."""
    state = _WorkerState(spec)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            op = msg[0]
            if op == "stop":
                return
            if op == "attach":
                state.attach(msg[1])
            elif op == "ping":
                conn.send(("pong", spec.shard_id))
            elif op == "crash":
                os._exit(17)
            elif op == "task":
                task_id, query_stack, row_map, row_residue = msg[1:]
                try:
                    flags = state.run(query_stack, row_map, row_residue)
                except BaseException as exc:
                    conn.send(("err", task_id, f"{type(exc).__name__}: {exc}"))
                else:
                    conn.send(("ok", task_id, flags))
            else:
                conn.send(("err", None, f"unknown op {op!r}"))
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass
