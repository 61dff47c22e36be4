"""Pluggable shard executors: GIL-bound threads vs worker processes.

The sharded engine's original workers are ``threading.Thread``s — fully
concurrent for the simulated in-flash backend (which waits, not
computes) but serialized by the GIL for the CPU kernels, which is why
``benchmarks/out/serving_scaling.txt`` was flat from 1 to 8 shards.
The ``process`` executor gives every shard a real OS process holding a
zero-copy :mod:`multiprocessing.shared_memory` view of the database
arena (see :meth:`repro.he.arena.CiphertextArena.share`), so shard
kernels run on separate cores with no shared interpreter lock.

Selection mirrors the ``poly_backend`` plumbing: an explicit
``executor=`` argument wins, else
:func:`set_default_serve_executor`, else the ``REPRO_SERVE_EXECUTOR``
environment variable, else ``"thread"`` (the parity oracle and the
right choice for stateful/IFP backends, which the process executor
cannot host).

The start method is pinned to ``spawn`` — deterministic, fork-safe
(no inherited locks mid-acquire) and the only portable choice across
macOS/Windows; a regression test constructs a process-executor engine
from a clean interpreter to keep it that way.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..he.arena import SharedArenaHandle
from .worker import ShardWorkerSpec, shard_worker_main

# ---------------------------------------------------------------------------
# Executor selection (mirrors repro.he.backend's poly-backend plumbing)
# ---------------------------------------------------------------------------

#: the two shard-executor implementations
SERVE_EXECUTORS = ("thread", "process")

#: environment override consulted when no explicit choice was made.
EXECUTOR_ENV_VAR = "REPRO_SERVE_EXECUTOR"

_default_executor: str | None = None


def set_default_serve_executor(name: str | None) -> None:
    """Install a process-wide default (``None`` restores env/built-in)."""
    global _default_executor
    if name is not None and name not in SERVE_EXECUTORS:
        raise ValueError(
            f"unknown serve executor {name!r}; available: {sorted(SERVE_EXECUTORS)}"
        )
    _default_executor = name


def get_default_serve_executor() -> str:
    if _default_executor is not None:
        return _default_executor
    env = os.environ.get(EXECUTOR_ENV_VAR)
    if env:
        if env not in SERVE_EXECUTORS:
            raise ValueError(
                f"{EXECUTOR_ENV_VAR}={env!r} is not a serve executor; "
                f"available: {sorted(SERVE_EXECUTORS)}"
            )
        return env
    return "thread"


def resolve_serve_executor(spec: str | None) -> str:
    """Turn an executor name or ``None`` (process default) into a name."""
    if spec is None:
        return get_default_serve_executor()
    if spec not in SERVE_EXECUTORS:
        raise ValueError(
            f"unknown serve executor {spec!r}; available: {sorted(SERVE_EXECUTORS)}"
        )
    return spec


def spawn_context():
    """The pinned ``spawn`` multiprocessing context all serve workers
    use (never the platform default, which is ``fork`` on Linux)."""
    return multiprocessing.get_context("spawn")


# ---------------------------------------------------------------------------
# Process executor
# ---------------------------------------------------------------------------


class WorkerCrashError(RuntimeError):
    """A shard worker process died (crash or kill) mid-conversation."""


def _close_handles(handles: Sequence["_WorkerHandle"]) -> None:
    """GC-finalizer cleanup; must not reference the executor itself."""
    for handle in handles:
        try:
            handle.close()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class _WorkerHandle:
    """Parent-side lifecycle of one shard worker process."""

    def __init__(self, mp_ctx, spec: ShardWorkerSpec):
        self._mp = mp_ctx
        self.spec = spec
        self.process = None
        self.conn = None
        self.arena_handle: Optional[SharedArenaHandle] = None
        #: times this shard's worker was respawned after a crash
        self.restarts = 0

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def spawn(self, arena_handle: SharedArenaHandle) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=shard_worker_main,
            args=(child_conn, self.spec),
            name=f"repro-shard-{self.spec.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self.conn = parent_conn
        self.attach(arena_handle)

    def respawn(self) -> None:
        self.restarts += 1
        self.close(graceful=False)
        self.spawn(self.arena_handle)

    def attach(self, arena_handle: SharedArenaHandle) -> None:
        self.arena_handle = arena_handle
        self.send(("attach", arena_handle))

    def send(self, msg: tuple) -> None:
        if self.conn is None or self.process is None:
            raise WorkerCrashError(f"shard {self.spec.shard_id} worker not running")
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise WorkerCrashError(
                f"shard {self.spec.shard_id} worker pipe closed"
            ) from exc

    def recv(self, poll_interval: float) -> tuple:
        """Next reply, or :class:`WorkerCrashError` once the process is
        observed dead with nothing left in the pipe."""
        while True:
            try:
                if self.conn.poll(poll_interval):
                    return self.conn.recv()
            except (EOFError, BrokenPipeError, OSError) as exc:
                raise WorkerCrashError(
                    f"shard {self.spec.shard_id} worker hung up"
                ) from exc
            if not self.process.is_alive():
                # Drain once more: the reply may have been buffered
                # before the process exited.
                try:
                    if self.conn.poll(0):
                        return self.conn.recv()
                except (EOFError, BrokenPipeError, OSError):
                    pass
                raise WorkerCrashError(
                    f"shard {self.spec.shard_id} worker died "
                    f"(exit code {self.process.exitcode})"
                )

    def close(self, graceful: bool = True) -> None:
        conn, self.conn = self.conn, None
        process, self.process = self.process, None
        if conn is not None:
            if graceful:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError, ValueError):
                    pass
            conn.close()
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5.0)


class ProcessShardExecutor:
    """One spawn-context worker process per shard, warm across batches.

    Tasks go out over per-shard pipes (query rows + row maps, never
    ciphertext objects) and come back as flag-grid slices.  A worker
    observed dead is respawned once and the task retried, so a single
    crash degrades one task's latency instead of hanging the batch;
    the respawn re-attaches the current arena handle, so recovery works
    mid-batch even after ``invalidate_caches``.
    """

    kind = "process"

    def __init__(
        self,
        specs: Sequence[ShardWorkerSpec],
        arena_handle: SharedArenaHandle,
        *,
        poll_interval: float = 0.05,
    ):
        mp_ctx = spawn_context()
        self._poll_interval = poll_interval
        self._task_ids = itertools.count()
        self._lock = threading.Lock()
        #: (shard_id, task) retries that followed a worker crash
        self.degraded_tasks = 0
        self._handles: Dict[int, _WorkerHandle] = {
            spec.shard_id: _WorkerHandle(mp_ctx, spec) for spec in specs
        }
        # Spawn everything first, then the interpreters boot in
        # parallel; the attach messages wait in each pipe.
        for handle in self._handles.values():
            handle.spawn(arena_handle)
        self._finalizer = weakref.finalize(
            self, _close_handles, list(self._handles.values())
        )

    # -- arena lifecycle --------------------------------------------------

    def reattach(self, arena_handle: SharedArenaHandle) -> None:
        """Point every worker at a re-shared arena (after
        ``invalidate_caches`` / ``adopt_database`` rebuilt it)."""
        for handle in self._handles.values():
            try:
                handle.attach(arena_handle)
            except WorkerCrashError:
                handle.arena_handle = arena_handle
                handle.respawn()

    # -- tasks ------------------------------------------------------------

    def run_task(
        self,
        shard_id: int,
        query_stack: np.ndarray,
        row_map: np.ndarray,
        row_residue: np.ndarray,
    ) -> Tuple[np.ndarray, int]:
        """Execute one (query, shard) unit; returns ``(flags, crashes)``
        where ``crashes`` counts worker deaths survived on the way.

        The caller holds the shard's lock, so each worker converses
        with one parent thread at a time.
        """
        handle = self._handles[shard_id]
        with self._lock:
            task_id = next(self._task_ids)
        crashes = 0
        for attempt in (0, 1):
            try:
                handle.send(("task", task_id, query_stack, row_map, row_residue))
                while True:
                    reply = handle.recv(self._poll_interval)
                    if reply[0] in ("ok", "err") and reply[1] == task_id:
                        break
                    # reply to a task abandoned by an earlier crash-retry
            except WorkerCrashError:
                crashes += 1
                with self._lock:
                    self.degraded_tasks += 1
                if attempt == 1:
                    raise
                handle.respawn()
                continue
            if reply[0] == "err":
                raise RuntimeError(
                    f"shard {shard_id} worker failed: {reply[2]}"
                )
            return reply[2], crashes
        raise AssertionError("unreachable")  # pragma: no cover

    # -- health / accounting ---------------------------------------------

    @property
    def restart_count(self) -> int:
        return sum(h.restarts for h in self._handles.values())

    def shard_restarts(self, shard_id: int) -> int:
        return self._handles[shard_id].restarts

    def shard_alive(self, shard_id: int) -> bool:
        return self._handles[shard_id].alive

    # -- fault injection (repro.faults hook API) ---------------------------

    def crash_worker(self, shard_id: int) -> None:
        """Kill one worker the hard way (``os._exit`` in the child) and
        wait for the corpse, so the next task deterministically observes
        a dead shard mid-batch.  This is the executor side of the
        shared :func:`repro.faults.crash_shard_worker` hook."""
        handle = self._handles[shard_id]
        try:
            handle.send(("crash",))
        except WorkerCrashError:
            return
        if handle.process is not None:
            handle.process.join(timeout=5.0)

    # -- shutdown ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every worker; idempotent, also runs at GC and on the
        serving layer's SIGTERM drain path (via engine ``close()``).

        ``detach()`` doubles as the atomic claim: only the caller that
        actually detaches the finalizer runs ``_close_handles``, so a
        racing second ``shutdown()`` (engine close + drain + GC can all
        arrive) never double-releases the workers' pipes or re-joins
        already-reaped processes."""
        claimed = self._finalizer.detach()
        if claimed is None:
            return
        _obj, func, args, kwargs = claimed
        func(*args, **kwargs)
