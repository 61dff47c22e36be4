"""Sharded execution of the Hom-Add secure search.

:class:`ShardedSearchEngine` splits an :class:`EncryptedDatabase` into
contiguous per-shard polynomial slices, gives every shard its own
:class:`AdditionBackend` instance (CPU reference or simulated in-flash),
and runs a batch as (query, shard) tasks.  Every shard task yields, per
query variant, the sorted indices of the set match flags of that
shard's slice of the flag grid; finalize shifts them to *global*
polynomial order and concatenates them shard by shard, so decode is
byte-identical to the single-pipeline
:class:`~repro.core.pipeline.SecureStringMatchPipeline` — including
matches that span shard boundaries (the run-detection in
:class:`~repro.core.matcher.ResultDecoder` operates on the indices of
the globally concatenated flag vector).

Execution model
---------------
* Tasks run on the calling thread, query by query and shard by shard;
  a query is finalized (index merge + decode + verification) right
  after its last shard task.  Shard parallelism exists in the *modeled*
  SSD figures, which come from the task traces, not from threads:
  on 1- and 2-CPU hosts per-batch worker threads bought no wall time on
  any workload (``docs/perf.md``, "Removed variants").
* A shard executes one task at a time (its lock models the physical
  die-group and protects stateful backends such as
  :class:`~repro.ssd.device.IFPAdditionBackend` from concurrent
  callers of one engine).
* Variant encryption — under the client's secret key, one pass over
  the rows a request is missing — goes through the shared bounded LRU
  :class:`~repro.serve.cache.VariantCipherCache`.
* A shard whose backend is a plain CPU adder (``supports_fused``)
  reads its polynomial range from the database's one ciphertext arena
  and its task reduces to a few broadcast kernels (see
  :mod:`repro.he.arena`).
  A shard whose backend does its own addition (the simulated in-flash
  IFP device) runs one ``backend.hom_add`` per (polynomial, variant)
  pair instead; both produce the same hits.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..he.arena import QueryArena, fused_decrypt_flags, unstack_ciphertext
from ..he.bfv import BFVContext
from ..verify import VerifyLike
from ..core.client import CipherMatchClient, ClientConfig
from ..core.match_polynomial import DeterministicComparator, IndexMode
from ..core.matcher import (
    AdditionBackend,
    CPUAdditionBackend,
    SecureSearchEngine,
    block_hits,
    comparator_hits,
)
from ..core.packing import EncryptedDatabase
from ..core.pipeline import SearchReport
from ..core.query import PreparedQuery
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
    """A contiguous polynomial range of the encrypted database bound to
    one backend."""

    shard_id: int
    base_poly: int
    num_polynomials: int
    backend: AdditionBackend
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def fused(self) -> bool:
        """True when the broadcast arena kernels compute exactly what
        this shard's backend would add pair by pair."""
        return getattr(self.backend, "supports_fused", False)


class _QueryJob:
    """One distinct query of a batch."""

    def __init__(self, index: int, query_bits: np.ndarray, key: bytes,
                 prepared: PreparedQuery):
        self.index = index
        self.query_bits = query_bits
        self.key = key
        self.prepared = prepared
        #: shard_id -> per variant, the sorted indices of the set flags
        #: of the shard's ``(shard_polys, n)`` flag slice
        self.hit_parts: Dict[int, List[np.ndarray]] = {}
        #: shards whose task was skipped/lost under partial-results mode
        self.degraded: set = set()
        self.query_arena: Optional[QueryArena] = None
        #: ``(V, P)`` query row per (variant, database polynomial);
        #: shards read their columns
        self.row_map: Optional[np.ndarray] = None
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
    cache_capacity:
        Bound on the shared variant-ciphertext LRU cache.
    degraded_mode:
        What a batch does when a shard is unserveable (injected worker
        crash, circuit breaker open).  ``"fail"`` (default) propagates
        the failure — the historical behavior.  ``"partial"`` leaves
        the dead shard's span without a set flag and returns matches
        from the live shards, marking the report's ``degraded_shards``
        so callers know the result may be incomplete.
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
        cache_capacity: int = 256,
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
            client = CipherMatchClient(config)
        self.client = client
        self.config = client.config
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = num_shards
        self.backend_factory: BackendFactory = backend_factory or (
            lambda ctx, shard_id: CPUAdditionBackend(ctx)
        )
        self.cache = cache if cache is not None else VariantCipherCache(
            cache_capacity
        )
        #: tenant label stamped into every ServeReport ("" = single-tenant)
        self.tenant = tenant
        self.scheduler = ServeScheduler(word_bits=self._word_bits(client.ctx))
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
                num_polynomials=int(bounds[i + 1]) - int(bounds[i]),
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
        """Nothing to release — the engine owns no thread, process or
        file.  Kept because ``Session.close`` (and hence the net
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
        """Execute a query batch across all shards, task by task on
        the calling thread.  ``verify`` accepts a bool or
        :class:`repro.verify.VerifyPolicy` and is resolved once, in the
        client decode step."""
        if self.db is None or not self.shards:
            raise RuntimeError("outsource or adopt a database first")

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
                )
                by_key[key] = job
                jobs.append(job)
            else:
                dedup_hits += 1
            order.append(job)

        # Shard accounting is this batch's: tallied where each task
        # runs, not read from counters that live as long as the engine.
        traces: List[ShardTaskTrace] = []
        stats = {
            shard.shard_id: ShardStats(
                shard.shard_id,
                *self.scheduler.placement(shard.shard_id),
                num_polynomials=shard.num_polynomials,
                hom_adds=0,
                tasks_executed=0,
                busy_seconds=0.0,
                modeled_utilization=0.0,  # bound to the replay below
            )
            for shard in self.shards
        }
        start = time.perf_counter()
        for job in jobs:
            for shard in self.shards:
                if not self._admit_shard_task(shard):
                    job.degraded.add(shard.shard_id)
                    continue
                tally = stats[shard.shard_id]
                with shard.lock:
                    t0 = time.perf_counter()
                    job.hit_parts[shard.shard_id] = self._run_shard_task(shard, job)
                    tally.busy_seconds += time.perf_counter() - t0
                self._breakers[shard.shard_id].record_success()
                hom_adds = job.prepared.num_variants * shard.num_polynomials
                tally.hom_adds += hom_adds
                tally.tasks_executed += 1
                traces.append(ShardTaskTrace(job.index, shard.shard_id, hom_adds))
            job.report = self._finalize(job, verify=verify)
            job.finished_at = time.perf_counter() - start
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
        for tally in stats.values():
            tally.modeled_utilization = partial(
                model.utilization, tally.channel, tally.die
            )
            tally.breaker = self._breakers[tally.shard_id].state

        batch_degraded = sorted({sid for job in jobs for sid in job.degraded})
        return ServeReport(
            reports=[job.report for job in order],
            num_shards=len(self.shards),
            wall_seconds=wall,
            latencies=[job.finished_at for job in order],
            deduplicated_hits=dedup_hits,
            cache=self.cache.stats(),
            shards=list(stats.values()),
            modeled_makespan=model.makespan,
            modeled_latencies=model.latencies,
            encrypted_db_bytes=self.db.serialized_bytes,
            degraded_shards=batch_degraded,
            tenant=self.tenant,
        )

    # -- fault stepping + circuit breakers --------------------------------

    def _admit_shard_task(self, shard: DbShard) -> bool:
        """What happens in front of one shard task: step the
        ``shard.task`` fault site (slow-shard delays are served here),
        ask the shard's breaker, and lose the task to an injected worker
        crash.  ``False`` means the shard contributes nothing to this
        query (breaker open, or a crash under ``degraded_mode="partial"``);
        a crash under ``"fail"`` raises :class:`WorkerCrashError`."""
        breaker = self._breakers[shard.shard_id]
        injector = self.fault_injector
        events = (
            injector.step(SITE_SHARD_TASK, shard.shard_id)
            if injector is not None
            else ()
        )
        for ev in events:
            if ev.kind == SLOW_SHARD and ev.delay > 0:
                time.sleep(ev.delay)
        if not breaker.allow():
            return False
        if any(ev.kind == WORKER_CRASH for ev in events):
            breaker.record_failure()
            if self.degraded_mode != "partial":
                raise WorkerCrashError(
                    f"shard {shard.shard_id}: injected worker crash"
                )
            return False
        return True

    @property
    def degraded_shards(self) -> List[int]:
        """Shards whose circuit breaker is currently not closed (the
        service surfaces the count in the STATS frame)."""
        return sorted(
            shard_id
            for shard_id, breaker in self._breakers.items()
            if breaker.state != "closed"
        )

    # -- arena machinery -------------------------------------------------

    def _job_query_arena(self, job: _QueryJob) -> QueryArena:
        """The job's stacked query-variant rows and its row map, built
        by the first shard task to need them.  Rows live in the shared
        :class:`VariantCipherCache` — under ``CLIENT_DECRYPT`` the
        ``(3, n)`` ciphertext rows and phase row of a query polynomial
        encrypted under the client's secret key — and one locked call
        asks for all of the request's rows and encrypts the missing
        ones in one pass, so a repeated query skips encryption
        altogether: the fused kernel reads the phase row, the per-pair
        adder and the comparator the ciphertext rows of the same entry.
        """
        if job.query_arena is None:
            ctx, client = self.client.ctx, self.client

            def encrypt(missing: list) -> List[np.ndarray]:
                block = client.preparer.encrypt_variant_value(
                    job.prepared, [row for _, row in missing],
                    client.pk, client.sk, deterministic_seed=client.masking_seed,
                )
                # each entry owns its memory: evicting one frees it
                return [row.copy() for row in block]

            rows = self.cache.get_or_create(
                [(job.key, row) for row in range(job.prepared.num_variants)],
                encrypt,
            )
            job.query_arena = QueryArena(
                ctx.ring, ctx.params, job.prepared.variants, rows
            )
            job.row_map = job.query_arena.row_map(range(self.db.num_polynomials))
        return job.query_arena

    # -- shard execution -------------------------------------------------

    def _run_shard_task(self, shard: DbShard, job: _QueryJob) -> List[np.ndarray]:
        """One (query, shard) unit: Hom-Add every query variant against
        this shard's slice and extract the match flags.

        Returns, per variant, the sorted flat indices of the set flags
        of the shard's ``(shard_polys, n)`` slice of the flag grid.
        Every branch tallies one logical Hom-Add (and, under
        ``CLIENT_DECRYPT``, one decryption) per (polynomial, variant)
        pair on the context's operation counter.
        """
        ctx = self.client.ctx
        query_arena = self._job_query_arena(job)
        stop = shard.base_poly + shard.num_polynomials
        row_map = job.row_map[:, shard.base_poly : stop]
        if not shard.fused:
            # one genuine ``backend.hom_add`` per pair — the only path a
            # stateful backend (the simulated in-flash device) can run;
            # the adder and ``ctx.decrypt`` count their own operations
            query_cts = [
                unstack_ciphertext(ctx.ring, ctx.params, row)
                for row in query_arena.stack
            ]
            blocks = SecureSearchEngine(shard.backend).search(
                self.db, job.prepared,
                lambda v_idx, j: query_cts[job.row_map[v_idx, j]],
                range(shard.base_poly, stop),
            )
            index_unit = self.client if self._comparator is None else self._comparator
            return block_hits(
                blocks, index_unit.flag_matches, job.prepared.num_variants,
                shard.base_poly,
            )
        # the database's one arena (rebuilt after ``invalidate_caches``):
        # nothing per shard to go stale; a range builds only its own tiles
        arena = self.db.fused_arena(ctx.ring, ctx.params)
        hom_adds = job.prepared.num_variants * shard.num_polynomials
        ctx.counter.additions += hom_adds
        if self._comparator is not None:
            return comparator_hits(
                self._comparator, arena, query_arena, row_map,
                range(shard.base_poly, stop),
            )
        ctx.counter.decryptions += hom_adds
        return fused_decrypt_flags(
            arena.phases(self.client.sk, shard.base_poly, stop),
            query_arena.phases(self.client.sk),
            row_map,
            ctx.params,
            self.client.chunk_width,
        )

    # -- result merge + decode -------------------------------------------

    def _finalize(self, job: _QueryJob, *, verify: VerifyLike) -> SearchReport:
        """Merge the per-shard hits into global flag indices — each
        shard's shifted by ``base_poly * n``, concatenated in shard
        order, so they stay sorted and cross-shard runs decode exactly
        like a single-engine pass — and decode.  Degraded shards left no
        hits; their span holds no set flag, so live-shard matches decode
        normally and dead-shard offsets simply cannot match."""
        num_variants = job.prepared.num_variants
        live = [s for s in self.shards if s.shard_id in job.hit_parts]
        hits = []
        for v in range(num_variants):
            parts = [
                job.hit_parts[shard.shard_id][v] + shard.base_poly * self.db.n
                for shard in live
            ]
            hits.append(
                np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
            )
        candidates = self.client.decode_flags_matrix(
            job.prepared, hits, self.db, verify=verify
        )
        return SearchReport(
            matches=[c.offset for c in candidates],
            candidates=candidates,
            hom_additions=num_variants
            * sum(shard.num_polynomials for shard in live),
            num_variants=num_variants,
            encrypted_db_bytes=self.db.serialized_bytes,
            degraded_shards=tuple(sorted(job.degraded)),
        )
