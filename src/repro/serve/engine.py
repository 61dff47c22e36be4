"""Concurrent sharded execution of the Hom-Add secure search.

:class:`ShardedSearchEngine` splits an :class:`EncryptedDatabase` into
contiguous per-shard polynomial slices, gives every shard its own
:class:`AdditionBackend` instance (CPU reference or simulated in-flash),
and drives a worker pool over a task queue of (query, shard) units.
Every shard task yields that shard's slice of the boolean match-flag
grid; finalize stitches the slices in *global* polynomial order, so
decode is byte-identical to the single-pipeline
:class:`~repro.core.pipeline.SecureStringMatchPipeline` — including
matches that span shard boundaries (the run-detection in
:class:`~repro.core.matcher.ResultDecoder` operates on the globally
concatenated flag vector).

Concurrency model
-----------------
* A shard executes one task at a time (its lock models the physical
  die-group and protects stateful backends such as
  :class:`~repro.ssd.device.IFPAdditionBackend`).
* Variant encryption (and the phase of each fresh row) is serialized
  through the shared bounded LRU
  :class:`~repro.serve.cache.VariantCipherCache` (the client RNG is not
  thread-safe) and is the larger part of a cache-missing search; the
  Hom-Add kernels run concurrently across shards.
* The worker completing a query's last shard task finalizes it (index
  generation + decode + verification), so decode of one query overlaps
  the Hom-Adds of the next.
* A shard whose backend is a plain CPU adder (``supports_fused``)
  holds a zero-copy slice of the database's ciphertext arena and its
  task reduces to a few broadcast kernels (see :mod:`repro.he.arena`).
  A shard whose backend does its own addition (the simulated in-flash
  IFP device) runs one ``backend.hom_add`` per (polynomial, variant)
  pair instead; both produce the same flag slice.
* Shard tasks run on ``serve-worker-<i>`` threads of the serving
  process, started per batch; the calling thread is worker 0.  Threads
  are the only executor (``docs/perf.md``, "Removed variants", has the
  measurements against per-shard worker processes).
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..he.arena import (
    CiphertextArena,
    QueryArena,
    fused_decrypt_flags,
    stack_fresh_row,
    unstack_ciphertext,
)
from ..he.bfv import BFVContext, Ciphertext
from ..verify import VerifyLike
from ..core.client import CipherMatchClient, ClientConfig
from ..core.match_polynomial import (
    DeterministicComparator,
    IndexMode,
    flag_matches_by_decryption,
)
from ..core.matcher import (
    AdditionBackend,
    CPUAdditionBackend,
    comparator_flag_grid,
)
from ..core.packing import EncryptedDatabase
from ..core.pipeline import SearchReport
from ..core.query import PreparedQuery, variant_cache_key
from ..faults import (
    SLOW_SHARD,
    SITE_SHARD_TASK,
    WORKER_CRASH,
    CircuitBreaker,
    FaultInjector,
)
from .cache import VariantCipherCache
from .report import ModelReplay, ServeReport, ShardStats
from .scheduler import ServeScheduler, ShardTaskTrace

#: builds the addition backend for one shard: ``factory(ctx, shard_id)``
BackendFactory = Callable[[BFVContext, int], AdditionBackend]


class WorkerCrashError(RuntimeError):
    """A shard task was lost to an injected ``worker_crash`` fault."""


@dataclass
class DbShard:
    """A contiguous slice of the encrypted database bound to one backend."""

    shard_id: int
    base_poly: int
    ciphertexts: List[Ciphertext]
    backend: AdditionBackend
    #: zero-copy view into the database's ciphertext arena
    arena: Optional[CiphertextArena] = None
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def num_polynomials(self) -> int:
        return len(self.ciphertexts)

    @property
    def fused(self) -> bool:
        """True when the broadcast arena kernels compute exactly what
        this shard's backend would add pair by pair."""
        return getattr(self.backend, "supports_fused", False)


class _QueryJob:
    """One distinct query in flight across all shards."""

    def __init__(self, index: int, query_bits: np.ndarray, key: bytes,
                 prepared: PreparedQuery, num_shards: int):
        self.index = index
        self.query_bits = query_bits
        self.key = key
        self.prepared = prepared
        #: shard_id -> (V, shard_polys, n) flag grid slice
        self.flag_parts: Dict[int, np.ndarray] = {}
        #: shards whose task was skipped/lost under partial-results mode
        self.degraded: set = set()
        self.query_arena: Optional[QueryArena] = None
        self.remaining = num_shards
        self.lock = threading.Lock()
        self.prep_lock = threading.Lock()
        self.finished_at: float = 0.0
        self.report: Optional[SearchReport] = None


class ShardedSearchEngine:
    """Serves query batches over a sharded encrypted database.

    Parameters
    ----------
    config:
        Client configuration; ignored when ``client`` is given.
    client:
        An existing :class:`CipherMatchClient` to reuse (lets the engine
        adopt a database a pipeline already outsourced).
    num_shards:
        Requested shard count; clamped to the number of database
        polynomials at :meth:`outsource` time.
    backend_factory:
        Builds one backend per shard; defaults to fresh
        :class:`CPUAdditionBackend` instances.
    max_workers:
        Worker-pool size; defaults to the shard count (more workers than
        shards cannot help — shards serialize their own tasks).
    cache_capacity:
        Bound on the shared variant-ciphertext LRU cache.
    poly_backend:
        Polynomial-arithmetic backend for the HE layer ("vectorized" /
        "reference"); applied when the engine builds its own client from
        ``config``.  The vectorized backend is what lets decode — one
        ``c1 * s`` negacyclic multiply per result block — keep up with
        the concurrent Hom-Add stage (see ``docs/backends.md``).
    degraded_mode:
        What a batch does when a shard is unserveable (injected worker
        crash, circuit breaker open).  ``"fail"`` (default) propagates
        the failure — the historical behavior.  ``"partial"`` zero-fills
        the dead shard's flag slice and returns matches from the live
        shards, marking the report's ``degraded_shards`` so callers know
        the result may be incomplete.
    breaker_threshold / breaker_cooldown:
        Per-shard :class:`repro.faults.CircuitBreaker` tuning: the
        breaker opens after ``breaker_threshold`` consecutive crash-ful
        tasks and half-opens (one probe task) after ``breaker_cooldown``
        seconds.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; when set, every
        shard task steps the ``shard.task`` site (worker crashes, slow
        shards) before executing.  Settable after construction too — the
        net service wires it through this attribute.
    """

    def __init__(
        self,
        config: Optional[ClientConfig] = None,
        *,
        client: Optional[CipherMatchClient] = None,
        num_shards: int = 1,
        backend_factory: Optional[BackendFactory] = None,
        max_workers: Optional[int] = None,
        cache_capacity: int = 256,
        scheduler: Optional[ServeScheduler] = None,
        poly_backend: Optional[str] = None,
        degraded_mode: str = "fail",
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        fault_injector: Optional[FaultInjector] = None,
        cache: Optional[VariantCipherCache] = None,
        tenant: str = "",
    ):
        if client is None:
            if config is None:
                raise ValueError("provide a ClientConfig or a client")
            if poly_backend is not None and config.poly_backend != poly_backend:
                config = replace(config, poly_backend=poly_backend)
            client = CipherMatchClient(config)
        elif poly_backend is not None and client.ctx.poly_backend != poly_backend:
            raise ValueError(
                "poly_backend conflicts with the supplied client's backend "
                f"({client.ctx.poly_backend!r} != {poly_backend!r})"
            )
        self.client = client
        self.config = client.config
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.backend_factory: BackendFactory = backend_factory or (
            lambda ctx, shard_id: CPUAdditionBackend(ctx)
        )
        self.max_workers = max_workers
        self.cache = cache if cache is not None else VariantCipherCache(
            cache_capacity
        )
        #: tenant label stamped into every ServeReport ("" = single-tenant)
        self.tenant = tenant
        self.scheduler = scheduler or ServeScheduler(
            word_bits=self._word_bits(client.ctx)
        )
        if degraded_mode not in ("fail", "partial"):
            raise ValueError(
                f"degraded_mode must be 'fail' or 'partial', got {degraded_mode!r}"
            )
        self.degraded_mode = degraded_mode
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.fault_injector = fault_injector
        self._breakers: Dict[int, CircuitBreaker] = {}
        self.shards: List[DbShard] = []
        self.db: Optional[EncryptedDatabase] = None
        self._comparator: Optional[DeterministicComparator] = None
        self._arena_lock = threading.Lock()

    @staticmethod
    def _word_bits(ctx: BFVContext) -> int:
        q = ctx.params.q
        bits = (q - 1).bit_length()
        return bits if q == 1 << bits else 32

    # -- database placement ---------------------------------------------

    def outsource(self, db_bits: np.ndarray) -> EncryptedDatabase:
        """Pack + encrypt the database, then split it across shards."""
        db = self.client.outsource(np.asarray(db_bits, dtype=np.uint8))
        self.adopt_database(db)
        return db

    def adopt_database(self, db: EncryptedDatabase) -> None:
        """Shard an already-encrypted database (e.g. one a pipeline
        outsourced) without re-encrypting."""
        self.db = db
        self.cache.clear()
        effective = max(1, min(self.num_shards, db.num_polynomials))
        bounds = np.linspace(0, db.num_polynomials, effective + 1).astype(int)
        self.shards = [
            DbShard(
                shard_id=i,
                base_poly=int(bounds[i]),
                ciphertexts=db.ciphertexts[int(bounds[i]) : int(bounds[i + 1])],
                backend=self.backend_factory(self.client.ctx, i),
            )
            for i in range(effective)
        ]
        self._breakers = {
            shard.shard_id: CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown,
            )
            for shard in self.shards
        }
        self._comparator = None
        if self.config.index_mode is IndexMode.SERVER_DETERMINISTIC:
            self._comparator = DeterministicComparator(
                self.client.ctx,
                self.client.pk,
                self.config.deterministic_seed,
                self.client.chunk_width,
            )

    def close(self) -> None:
        """Nothing to release — shard workers are threads that live for
        one batch.  Kept because ``Session.close`` (and hence the net
        server's SIGTERM drain path) and ``with`` blocks call it."""

    def __enter__(self) -> "ShardedSearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- queries ---------------------------------------------------------

    def search(
        self, query_bits: np.ndarray, *, verify: VerifyLike = True
    ) -> SearchReport:
        """Single-query convenience wrapper around :meth:`search_batch`."""
        return self.search_batch([query_bits], verify=verify).reports[0]

    def search_batch(
        self, queries: Sequence[np.ndarray], *, verify: VerifyLike = True
    ) -> ServeReport:
        """Execute a query batch across all shards concurrently.
        ``verify`` accepts a bool or :class:`repro.verify.VerifyPolicy`
        and is resolved once, in the client decode step."""
        if self.db is None or not self.shards:
            raise RuntimeError("outsource or adopt a database first")
        if any(shard.fused for shard in self.shards):
            self._ensure_shard_arenas()

        # Deduplicate identical queries; duplicates share one job/report.
        jobs: List[_QueryJob] = []
        by_key: Dict[bytes, _QueryJob] = {}
        order: List[_QueryJob] = []
        dedup_hits = 0
        for q in queries:
            bits = np.asarray(q, dtype=np.uint8)
            key = bits.tobytes()
            job = by_key.get(key)
            if job is None:
                job = _QueryJob(
                    index=len(jobs),
                    query_bits=bits,
                    key=key,
                    prepared=self.client.prepare_query(bits),
                    num_shards=len(self.shards),
                )
                by_key[key] = job
                jobs.append(job)
            else:
                dedup_hits += 1
            order.append(job)

        tasks: "queue_mod.Queue" = queue_mod.Queue()
        for job in jobs:
            for shard in self.shards:
                tasks.put((job, shard))

        depth_samples: List[int] = []
        traces: List[ShardTaskTrace] = []
        #: shard_id -> seconds this batch's tasks held the shard
        busy_seconds = dict.fromkeys((s.shard_id for s in self.shards), 0.0)
        trace_lock = threading.Lock()
        errors: List[BaseException] = []
        start = time.perf_counter()

        def worker() -> None:
            while True:
                try:
                    job, shard = tasks.get_nowait()
                except queue_mod.Empty:
                    return
                breaker = self._breakers.get(shard.shard_id)
                injector = self.fault_injector
                try:
                    flags_part: Optional[np.ndarray] = None
                    busy = 0.0
                    degraded = False
                    events = (
                        injector.step(SITE_SHARD_TASK, shard.shard_id)
                        if injector is not None
                        else ()
                    )
                    for ev in events:
                        if ev.kind == SLOW_SHARD and ev.delay > 0:
                            time.sleep(ev.delay)
                    crash_injected = any(
                        ev.kind == WORKER_CRASH for ev in events
                    )
                    if breaker is not None and not breaker.allow():
                        degraded = True
                    else:
                        try:
                            with shard.lock:
                                depth_samples.append(tasks.qsize())
                                if crash_injected:
                                    raise WorkerCrashError(
                                        f"shard {shard.shard_id}: injected "
                                        "worker crash"
                                    )
                                t0 = time.perf_counter()
                                flags_part = self._run_shard_task(shard, job)
                                busy = time.perf_counter() - t0
                            if breaker is not None:
                                breaker.record_success()
                        except WorkerCrashError:
                            if breaker is not None:
                                breaker.record_failure()
                            if self.degraded_mode != "partial":
                                raise
                            degraded = True
                    if degraded:
                        with job.lock:
                            job.degraded.add(shard.shard_id)
                            job.remaining -= 1
                            last = job.remaining == 0
                    else:
                        with trace_lock:
                            traces.append(
                                # Every batch task enters the queue at t=0;
                                # the device model must not inherit the
                                # Python driver's pacing.
                                ShardTaskTrace(
                                    query_index=job.index,
                                    shard_id=shard.shard_id,
                                    hom_adds=job.prepared.num_variants
                                    * shard.num_polynomials,
                                )
                            )
                            busy_seconds[shard.shard_id] += busy
                        with job.lock:
                            job.flag_parts[shard.shard_id] = flags_part
                            job.remaining -= 1
                            last = job.remaining == 0
                    if last:
                        # This worker finalizes the query so decode
                        # overlaps other queries' Hom-Adds.
                        job.report = self._finalize(job, verify=verify)
                        job.finished_at = time.perf_counter() - start
                except BaseException as exc:  # pragma: no cover - propagated
                    errors.append(exc)
                    return

        num_workers = min(
            self.max_workers or len(self.shards),
            max(1, len(jobs) * len(self.shards)),
        )
        # The calling thread is worker 0.  Besides saving a start, this
        # keeps the process's memory flat: a thread started while the
        # previous batch's threads are still exiting finds no free glibc
        # malloc arena and creates one (7-15 MiB of retained high water
        # each; BENCH_14.json, "rss").
        threads = [
            threading.Thread(target=worker, name=f"serve-worker-{i}")
            for i in range(1, num_workers)
        ]
        for t in threads:
            t.start()
        worker()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        wall = time.perf_counter() - start

        # The device model is an analysis of the batch, not part of
        # serving it: hand the report the traces and let whoever reads a
        # modeled figure pay for the replay (once; see ModelReplay).
        model = ModelReplay(
            self.scheduler,
            traces,
            self.db.ciphertexts[0].serialized_bytes if self.db.ciphertexts else 0,
            [job.index for job in order],
        )
        # Shard accounting is this batch's: tallied from the tasks that
        # ran in it, not from counters that live as long as the engine.
        hom_adds = dict.fromkeys(busy_seconds, 0)
        tasks_executed = dict.fromkeys(busy_seconds, 0)
        for trace in traces:
            hom_adds[trace.shard_id] += trace.hom_adds
            tasks_executed[trace.shard_id] += 1
        shard_stats = []
        for shard in self.shards:
            channel, die = self.scheduler.placement(shard.shard_id)
            shard_stats.append(
                ShardStats(
                    shard_id=shard.shard_id,
                    channel=channel,
                    die=die,
                    num_polynomials=shard.num_polynomials,
                    hom_adds=hom_adds[shard.shard_id],
                    tasks_executed=tasks_executed[shard.shard_id],
                    busy_seconds=busy_seconds[shard.shard_id],
                    modeled_utilization=partial(model.utilization, channel, die),
                    breaker=(
                        self._breakers[shard.shard_id].state
                        if shard.shard_id in self._breakers
                        else "closed"
                    ),
                )
            )

        batch_degraded = sorted({sid for job in jobs for sid in job.degraded})
        return ServeReport(
            reports=[job.report for job in order],
            num_shards=len(self.shards),
            num_workers=num_workers,
            wall_seconds=wall,
            latencies=[job.finished_at for job in order],
            deduplicated_hits=dedup_hits,
            cache=self.cache.stats(),
            shards=shard_stats,
            queue_depth_max=max(depth_samples, default=0),
            queue_depth_mean=(
                sum(depth_samples) / len(depth_samples) if depth_samples else 0.0
            ),
            modeled_makespan=model.makespan,
            modeled_latencies=model.latencies,
            encrypted_db_bytes=self.db.serialized_bytes,
            sheds=self.scheduler.sheds,
            admit_rejected=self.scheduler.admit_rejected,
            degraded_shards=batch_degraded,
            tenant=self.tenant,
        )

    # -- circuit breakers ------------------------------------------------

    @property
    def degraded_shards(self) -> List[int]:
        """Shards whose circuit breaker is currently not closed (the
        service surfaces the count in the STATS frame)."""
        return sorted(
            shard_id
            for shard_id, breaker in self._breakers.items()
            if breaker.state != "closed"
        )

    def breaker_for(self, shard_id: int) -> Optional[CircuitBreaker]:
        return self._breakers.get(shard_id)

    # -- arena machinery -------------------------------------------------

    def _ensure_shard_arenas(self) -> None:
        """Build the database arena once and hand every shard its
        zero-copy row slice.  Re-slices whenever the database rebuilt
        its arena (``EncryptedDatabase.invalidate_caches`` after an
        in-place mutation), so shards never serve stale coefficients."""
        with self._arena_lock:
            if not self.shards:
                return
            ctx = self.client.ctx
            arena = self.db.fused_arena(ctx.ring, ctx.params)
            first = self.shards[0].arena
            if first is not None and first._parent is arena:
                return
            for shard in self.shards:
                shard.arena = arena.slice(
                    shard.base_poly, shard.base_poly + shard.num_polynomials
                )

    def _job_query_arena(self, job: _QueryJob) -> QueryArena:
        """The job's stacked query-variant rows, built by the first
        shard task to need them.  Rows live in the shared
        :class:`VariantCipherCache` as :func:`stack_fresh_row` entries
        — ciphertext rows and the phase row computed once, at the miss
        — so a repeated query skips encryption *and* the ``c1 * s``
        multiply: the fused kernel reads the phase row, the per-pair
        adder and the comparator the ciphertext rows of the same entry.
        """
        with job.prep_lock:
            if job.query_arena is None:
                det_seed = None
                if self.config.index_mode is IndexMode.SERVER_DETERMINISTIC:
                    det_seed = self.config.deterministic_seed
                ctx = self.client.ctx

                def fresh_row(v_idx: int, residue: int) -> np.ndarray:
                    return stack_fresh_row(
                        *self.client.preparer.encrypt_variant_value(
                            job.prepared, v_idx, residue, self.client.pk,
                            deterministic_seed=det_seed, sk=self.client.sk,
                        )
                    )

                def rows_for(v_idx: int, residue: int, j: int) -> np.ndarray:
                    return self.cache.get_or_create(
                        (job.key, v_idx, residue),
                        lambda: fresh_row(v_idx, residue),
                    )

                job.query_arena = QueryArena(
                    ctx.ring,
                    ctx.params,
                    job.prepared.variants,
                    self.db.num_polynomials,
                    rows_for,
                )
            return job.query_arena

    # -- shard execution -------------------------------------------------

    def _run_shard_task(self, shard: DbShard, job: _QueryJob) -> np.ndarray:
        """One (query, shard) unit: Hom-Add every query variant against
        this shard's slice and extract the match flags.

        Returns the shard's ``(V, shard_polys, n)`` boolean slice of the
        global flag grid.  Every branch tallies one logical Hom-Add
        (and, under ``CLIENT_DECRYPT``, one decryption) per (polynomial,
        variant) pair on the context's operation counter.
        """
        ctx = self.client.ctx
        query_arena = self._job_query_arena(job)
        polys = np.arange(
            shard.base_poly,
            shard.base_poly + shard.num_polynomials,
            dtype=np.int64,
        )
        row_map = query_arena.row_map(polys)
        if shard.fused:
            hom_adds = job.prepared.num_variants * shard.num_polynomials
            if self._comparator is not None:
                flags = comparator_flag_grid(
                    self._comparator, shard.arena, query_arena, row_map, polys
                )
            else:
                flags = fused_decrypt_flags(
                    shard.arena.phases(self.client.sk),
                    query_arena.phases(self.client.sk),
                    row_map,
                    ctx.params,
                    self.client.chunk_width,
                )
            ctx.counter.additions += hom_adds
            if self._comparator is None:
                ctx.counter.decryptions += hom_adds
        else:
            # the adder and ``ctx.decrypt`` count their own operations
            flags = self._pair_flags(shard, query_arena, row_map)
        return flags

    def _pair_flags(
        self, shard: DbShard, query_arena: QueryArena, row_map: np.ndarray
    ) -> np.ndarray:
        """The shard's flag slice through its own adder: one genuine
        ``backend.hom_add`` per (polynomial, variant) pair, then
        per-block flag extraction — the only path a stateful backend
        (the simulated in-flash device) can run, and the oracle the
        broadcast kernels are tested against."""
        ctx = self.client.ctx
        query_cts = [
            unstack_ciphertext(ctx.ring, ctx.params, row)
            for row in query_arena.stack
        ]
        num_variants, num_polys = row_map.shape
        flags = np.empty((num_variants, num_polys, ctx.ring.n), dtype=bool)
        for v_idx in range(num_variants):
            for local_j, db_ct in enumerate(shard.ciphertexts):
                row = row_map[v_idx, local_j]
                result = shard.backend.hom_add(db_ct, query_cts[row])
                if self._comparator is not None:
                    flags[v_idx, local_j] = self._comparator.flag_matches(
                        result,
                        shard.base_poly + local_j,
                        variant_cache_key(
                            v_idx, int(query_arena.row_residue[row])
                        ),
                    )
                else:
                    flags[v_idx, local_j] = flag_matches_by_decryption(
                        ctx, result, self.client.sk, self.client.chunk_width
                    )
        return flags

    # -- result merge + decode -------------------------------------------

    def _finalize(self, job: _QueryJob, *, verify: bool) -> SearchReport:
        """Stitch the per-shard flag slices back into the global
        ``(V, P, n)`` grid (global polynomial order, so cross-shard runs
        decode exactly like a single-engine pass) and decode.  Degraded
        shards left no slice; their span stays all-False, so live-shard
        matches decode normally and dead-shard offsets simply cannot
        match."""
        num_variants = job.prepared.num_variants
        num_polys = self.db.num_polynomials
        live_polys = num_polys
        if job.degraded:
            flags = np.zeros((num_variants, num_polys, self.db.n), dtype=bool)
        else:
            flags = np.empty((num_variants, num_polys, self.db.n), dtype=bool)
        for shard in self.shards:
            part = job.flag_parts.get(shard.shard_id)
            if part is None:
                live_polys -= shard.num_polynomials
                continue
            flags[
                :, shard.base_poly : shard.base_poly + shard.num_polynomials
            ] = part
        candidates = self.client.decode_flags_matrix(
            job.prepared, flags, self.db, verify=verify
        )
        return SearchReport(
            matches=[c.offset for c in candidates],
            candidates=candidates,
            hom_additions=num_variants * live_polys,
            num_variants=num_variants,
            encrypted_db_bytes=self.db.serialized_bytes,
            degraded_shards=tuple(sorted(job.degraded)),
        )
