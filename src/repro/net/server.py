"""Asyncio TCP front end over the unified search facade.

:class:`AsyncSearchService` puts a real socket between callers and the
:mod:`repro.api` session layer.  One service owns one
:class:`~repro.api.session.Session` (``open_session``-style lifecycle:
the constructor resolves an engine key through the registry, generates
keys and wires caches), and every connection's requests are dispatched
onto that session via :meth:`Session.submit` — so concurrent
connections coalesce into the sharded engine's native serve-pool
batches exactly like concurrent in-process submitters do.

Concurrency and flow control
----------------------------
* The event loop only ever decodes frames and moves futures; all
  cryptography runs on the session dispatcher thread (queries) or the
  default executor (database outsourcing).
* **Admission control**: each connection holds a bounded in-flight set
  (``max_in_flight``).  When a request arrives over a full set, the
  entry with the *oldest deadline* — the one least likely to be worth
  serving — is shed: a queued victim is cancelled and answered with an
  ``ERR_SHED`` frame, or the incoming request itself is shed when its
  deadline is the oldest (or the victim already started executing).
  Sheds are recorded into the backing engine's
  :class:`~repro.serve.scheduler.ServeScheduler` accounting.
* **Graceful drain**: :meth:`begin_drain` (wired to SIGTERM by
  ``python -m repro serve-net``) stops accepting connections, answers
  new requests with ``ERR_DRAINING``, waits for every in-flight future,
  then closes the session; :meth:`serve_forever` returns so the process
  exits 0.
* A ``STATS`` frame answers with the serialized
  :class:`~repro.net.codec.ServiceStats`: admission counters plus the
  engine's most recent :class:`~repro.serve.report.ServeReport`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future as _ConcurrentFuture
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Union

from ..api.capabilities import CapabilityError
from ..api.session import Session, open_session
from ..faults import (
    CONN_DROP,
    SHED_STORM,
    SITE_FRAME_SEND,
    SITE_SERVER_REQUEST,
    FaultInjector,
    FaultPlan,
    install_engine_injector,
)
from ..serve.admission import classify_request, coerce_admission
from ..tenancy.fairness import WeightedFairQueue
from . import codec
from .framing import (
    PROTOCOL_VERSION,
    Frame,
    FrameType,
    FramingError,
    read_frame,
    set_send_fault_hook,
    write_frame,
)

_REQUEST_FRAMES = (FrameType.SEARCH, FrameType.WILDCARD, FrameType.BATCH)


@dataclass
class _InFlight:
    """One admitted request awaiting its response frame."""

    request_id: int
    deadline: float  # absolute loop time; +inf when none was given
    #: the session-layer concurrent future; cancellation must target
    #: this one — its cancel() truthfully fails once the dispatcher
    #: started executing, whereas cancelling the asyncio wrapper
    #: "succeeds" even when the work keeps running underneath
    cf_future: Optional["_ConcurrentFuture"] = None
    #: admission class ("exact"/"wildcard"/"batch") when the adaptive
    #: controller admitted this request; None when it is disabled
    admission_class: Optional[str] = None
    #: the controller that admitted it (a tenant's private controller
    #: on a multi-tenant service, else the global one); release must
    #: go back to the same controller
    admission_ctl: Optional[object] = None
    #: loop.time() at admission — feeds the controller's p99 window
    admitted_at: float = 0.0


@dataclass(eq=False)
class _Connection:
    """Per-connection state: stream pair, in-flight set, write lock."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    in_flight: Dict[int, _InFlight] = field(default_factory=dict)
    tasks: Set["asyncio.Task"] = field(default_factory=set)
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    closed: bool = False
    #: tenant this connection authenticated as in HELLO ("" until then,
    #: and always "" on a single-tenant service)
    tenant: str = ""

    async def send(self, ftype: FrameType, request_id: int, payload: bytes = b"") -> None:
        if self.closed:
            return
        try:
            async with self.write_lock:
                await write_frame(self.writer, Frame(ftype, request_id, payload))
        except (ConnectionError, RuntimeError, OSError):
            # The peer vanished mid-response; the read loop notices and
            # cleans up.  Responses to a dead peer are not an error.
            self.closed = True


class AsyncSearchService:
    """Serve the unified search facade over length-prefixed TCP frames."""

    def __init__(
        self,
        engine: Union[str, Session] = "bfv-sharded",
        *,
        session: Optional[Session] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 64,
        admission=None,
        fault_plan=None,
        tenants=None,
        fair_concurrency: int = 4,
        **engine_kwargs,
    ):
        #: multi-tenant mode: a :class:`~repro.tenancy.TenantRegistry`
        #: replaces the single owned session — each connection binds to
        #: one tenant at HELLO, and admitted requests dispatch through a
        #: weighted fair queue across tenant sessions
        self.tenants = tenants
        if tenants is not None:
            if session is not None or isinstance(engine, Session):
                raise TypeError(
                    "pass either a tenant registry or a session, not both"
                )
            if engine_kwargs:
                raise TypeError(
                    "engine kwargs configure the registry's sessions; "
                    "build the TenantRegistry with them instead"
                )
            self.session = None
            self._owns_session = False
        elif isinstance(engine, Session) and session is None:
            session = engine
            self.session = session
            self._owns_session = False
        elif session is not None:
            if engine_kwargs:
                raise TypeError(
                    "engine kwargs only apply when the service opens its "
                    "own session"
                )
            self.session = session
            self._owns_session = False
        else:
            self.session = open_session(engine, **engine_kwargs)
            self._owns_session = True
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.host = host
        self.port = port
        self.max_in_flight = max_in_flight
        #: adaptive AIMD admission controller (None → disabled); accepts
        #: an :class:`~repro.serve.admission.AdmissionController`, a p99
        #: budget in seconds, or a ``{class: seconds}`` mapping
        self.admission = coerce_admission(admission)
        #: per-tenant admission controllers built from each tenant's
        #: ``quota.p99_budget`` (tenants without a budget fall back to
        #: the global controller above)
        self._tenant_admission: Dict[str, object] = {}
        #: weighted oldest-deadline fair queue over per-connection
        #: admission (multi-tenant mode only)
        self._fair = WeightedFairQueue()
        if fair_concurrency < 1:
            raise ValueError(
                f"fair_concurrency must be >= 1, got {fair_concurrency}"
            )
        self._fair_slots = fair_concurrency
        self._executing = 0
        if tenants is not None:
            for tenant in tenants.tenants():
                self._fair.add_tenant(tenant.tenant_id, tenant.weight)
                if tenant.quota.p99_budget is not None:
                    self._tenant_admission[tenant.tenant_id] = (
                        coerce_admission(tenant.quota.p99_budget)
                    )
        #: deterministic fault schedule replayed by this service (None →
        #: no injection); accepts a :class:`~repro.faults.FaultPlan`, a
        #: spec string (``"conn_drop@3;shed_storm@10:count=4"``), or a
        #: ``@file.json`` reference
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan.load(fault_plan)
        self.fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(fault_plan) if fault_plan else None
        )
        self._frame_hook_installed = False
        self._storm_remaining = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._outsource_lock = asyncio.Lock()
        self._draining = False
        self._drained: Optional[asyncio.Event] = None
        # admission counters (the STATS frame serializes these)
        self.total_connections = 0
        self.accepted = 0
        self.completed = 0
        self.shed = 0
        self.failed = 0
        #: fail-fast rejections by the adaptive admission controller
        self.admit_rejected = 0

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) actually bound; resolves ``port=0`` ephemerals."""
        if self._server is None:
            raise RuntimeError("service is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting connections; returns the address."""
        if self._server is not None:
            raise RuntimeError("service already started")
        if self.fault_injector is not None:
            # Thread the schedule into the backing engine (shard.task
            # sites) and the framing layer (frame.send corruption).
            if self.tenants is not None:
                for tenant in self.tenants.tenants():
                    install_engine_injector(
                        tenant.session.engine, self.fault_injector
                    )
            else:
                install_engine_injector(
                    self.session.engine, self.fault_injector
                )
            if any(
                ev.site == SITE_FRAME_SEND for ev in self.fault_injector.plan
            ):
                set_send_fault_hook(self.fault_injector.frame_hook())
                self._frame_hook_installed = True
        self._drained = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        return self.address

    async def serve_forever(self) -> None:
        """Serve until :meth:`begin_drain` completes the drain."""
        if self._server is None:
            await self.start()
        assert self._drained is not None
        await self._drained.wait()

    def begin_drain(self) -> None:
        """Start a graceful drain (idempotent; call from the loop, e.g.
        a ``loop.add_signal_handler(SIGTERM, service.begin_drain)``)."""
        if self._draining:
            return
        self._draining = True
        asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Wait for every admitted request to resolve and respond.
        while True:
            pending = [
                task
                for conn in list(self._connections)
                for task in list(conn.tasks)
            ]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        if self._frame_hook_installed:
            set_send_fault_hook(None)
            self._frame_hook_installed = False
        if self._owns_session:
            # session.close() joins the dispatcher thread; keep the
            # event loop responsive while it drains.
            await asyncio.get_running_loop().run_in_executor(
                None, self.session.close
            )
        elif self.tenants is not None:
            # close_all is idempotent; joins every tenant dispatcher.
            await asyncio.get_running_loop().run_in_executor(
                None, self.tenants.close_all
            )
        if self._drained is not None:
            self._drained.set()

    async def aclose(self) -> None:
        """Drain and stop; safe to call multiple times."""
        if self._drained is not None and self._drained.is_set():
            return
        self._draining = True
        await self._drain()

    async def shutdown_connections(self) -> None:
        """Close connections lingering after a completed drain.

        Run this between :meth:`serve_forever` returning and the event
        loop closing: handlers parked in a frame read exit on the EOF
        instead of being cancelled mid-read at loop teardown (which
        asyncio.streams logs as noisy ``CancelledError`` tracebacks).
        The leading tick lets DRAIN responders flush their DRAIN_OK
        first; the trailing tick lets the woken handlers finish.
        """
        await asyncio.sleep(0.05)
        for conn in list(self._connections):
            await self._close_connection(conn)
        await asyncio.sleep(0.05)

    # -- stats -----------------------------------------------------------

    def _session_for(self, tenant_id: str = "") -> Session:
        """The session a tenant's work runs on (the single owned
        session when no registry is configured)."""
        if self.tenants is None:
            return self.session
        return self.tenants.get(tenant_id).session

    def _scheduler(self, tenant_id: str = ""):
        """The backing ShardedSearchEngine's scheduler, if there is one."""
        if self.tenants is not None and (
            not tenant_id or tenant_id not in self.tenants
        ):
            return None
        engine = self._session_for(tenant_id).engine
        return getattr(getattr(engine, "engine", None), "scheduler", None)

    def _record_shed(self, tenant_id: str = "") -> None:
        self.shed += 1
        scheduler = self._scheduler(tenant_id)
        if scheduler is not None:
            scheduler.record_shed(
                tenant=tenant_id if self.tenants is not None else None
            )
        if self.tenants is not None and tenant_id in self.tenants:
            self.tenants.get(tenant_id).accounting.record_shed()

    def stats(self) -> codec.ServiceStats:
        """Point-in-time operational snapshot (the STATS frame body)."""
        if self.tenants is not None:
            return self._stats_multi_tenant()
        report = getattr(self.session.engine, "last_serve_report", None)
        scheduler = self._scheduler()
        if report is not None:
            p50 = report.latency_percentile(50)
            p95 = report.latency_percentile(95)
            p99 = report.latency_percentile(99)
            throughput = report.throughput_qps
            cache_hit_rate = report.cache.hit_rate
            text = report.summary_table()
            report_json = report.to_json()
            served = report.num_queries
        else:
            p50 = p95 = p99 = throughput = cache_hit_rate = 0.0
            text = report_json = ""
            served = 0
        # Only the sharded engine has circuit breakers; other engines
        # report none degraded.
        inner = getattr(self.session.engine, "engine", None)
        degraded_shards = len(getattr(inner, "degraded_shards", ()) or ())
        return codec.ServiceStats(
            active_connections=len(self._connections),
            total_connections=self.total_connections,
            accepted=self.accepted,
            completed=self.completed,
            shed=self.shed,
            failed=self.failed,
            draining=self._draining,
            scheduler_sheds=0 if scheduler is None else scheduler.sheds,
            served_queries=served,
            wall_p50=p50,
            wall_p95=p95,
            wall_p99=p99,
            throughput_qps=throughput,
            cache_hit_rate=cache_hit_rate,
            admit_rejected=self.admit_rejected,
            degraded_shards=degraded_shards,
            report_text=text,
            report_json=report_json,
        )

    def _stats_multi_tenant(self) -> codec.ServiceStats:
        """Fleet snapshot: aggregates over every tenant, plus the
        per-tenant breakdown in :attr:`ServiceStats.tenants_json`."""
        from ..eval.tables import percentile

        rows = self.tenants.accounting_snapshot()
        merged_window: list = []
        sched_sheds = sched_admit = 0
        degraded = served = 0
        hits = misses = 0
        text = report_json = ""
        for tenant in self.tenants.tenants():
            tid = tenant.tenant_id
            rows.setdefault(tid, {})
            rows[tid]["dispatched"] = self._fair.dispatched(tid)
            rows[tid]["backlog"] = self._fair.backlog(tid)
            merged_window.extend(tenant.accounting.latency_window())
            scheduler = self._scheduler(tid)
            if scheduler is not None:
                sched_sheds += scheduler.sheds
                sched_admit += scheduler.admit_rejected
            inner = getattr(tenant.session.engine, "engine", None)
            degraded += len(getattr(inner, "degraded_shards", ()) or ())
            if tenant.cache is not None:
                cache_stats = tenant.cache.stats()
                hits += cache_stats.hits
                misses += cache_stats.misses
            report = getattr(tenant.session.engine, "last_serve_report", None)
            if report is not None:
                served += report.num_queries
                if not text:
                    text = report.summary_table()
                    report_json = report.to_json()
        lookups = hits + misses
        return codec.ServiceStats(
            active_connections=len(self._connections),
            total_connections=self.total_connections,
            accepted=self.accepted,
            completed=self.completed,
            shed=self.shed,
            failed=self.failed,
            draining=self._draining,
            scheduler_sheds=sched_sheds,
            served_queries=served,
            wall_p50=percentile(merged_window, 50),
            wall_p95=percentile(merged_window, 95),
            wall_p99=percentile(merged_window, 99),
            throughput_qps=0.0,
            cache_hit_rate=hits / lookups if lookups else 0.0,
            admit_rejected=self.admit_rejected,
            degraded_shards=degraded,
            report_text=text,
            report_json=report_json,
            tenants_json=json.dumps(rows, sort_keys=True),
        )

    def _welcome(self, tenant_id: str = "") -> codec.Welcome:
        session = self._session_for(tenant_id)
        caps = session.capabilities
        return codec.Welcome(
            protocol_version=PROTOCOL_VERSION,
            engine=session.engine_key,
            scheme=caps.scheme,
            wildcard=caps.wildcard,
            batching=caps.batching,
            sharded=caps.sharded,
            verify=caps.verify,
            max_query_bits=caps.max_query_bits,
            db_bit_length=session.db_bit_length,
            tenant=tenant_id,
        )

    # -- connection handling ---------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(reader=reader, writer=writer)
        self._connections.add(conn)
        self.total_connections += 1
        try:
            await self._connection_loop(conn)
        except (FramingError, ConnectionError, OSError):
            pass  # corrupt stream or peer reset: drop the connection
        finally:
            self._connections.discard(conn)
            await self._close_connection(conn)

    async def _close_connection(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _connection_loop(self, conn: _Connection) -> None:
        while True:
            frame = await read_frame(conn.reader)
            if frame is None:
                # Clean EOF.  In-flight responses for this peer are
                # moot, but the session work completes regardless.
                return
            if frame.type is FrameType.HELLO:
                _version, hello_tenant = codec.decode_hello(frame.payload)
                if self.tenants is not None:
                    if hello_tenant not in self.tenants:
                        await conn.send(
                            FrameType.ERROR,
                            frame.request_id,
                            codec.encode_error(
                                codec.ERR_TENANT,
                                f"unknown tenant {hello_tenant!r}",
                            ),
                        )
                        return
                    conn.tenant = hello_tenant
                await conn.send(
                    FrameType.WELCOME,
                    frame.request_id,
                    codec.encode_welcome(self._welcome(conn.tenant)),
                )
            elif frame.type in _REQUEST_FRAMES:
                await self._handle_request(conn, frame)
            elif frame.type is FrameType.OUTSOURCE:
                # run as a tracked task so a drain starting mid-upload
                # waits for it like any other in-flight work (the await
                # keeps per-connection frame ordering unchanged)
                task = asyncio.ensure_future(
                    self._handle_outsource(conn, frame)
                )
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
                await task
            elif frame.type is FrameType.STATS:
                await conn.send(
                    FrameType.STATS_RESULT,
                    frame.request_id,
                    codec.encode_stats(self.stats()),
                )
            elif frame.type is FrameType.PING:
                await conn.send(FrameType.PONG, frame.request_id)
            elif frame.type is FrameType.DRAIN:
                self.begin_drain()
                assert self._drained is not None
                await self._drained.wait()
                await conn.send(FrameType.DRAIN_OK, frame.request_id)
                return
            else:
                await conn.send(
                    FrameType.ERROR,
                    frame.request_id,
                    codec.encode_error(
                        codec.ERR_BAD_FRAME,
                        f"unexpected frame type {frame.type.name}",
                    ),
                )

    # -- request admission + execution -----------------------------------

    def _step_request_faults(self, conn: _Connection) -> bool:
        """Fire scheduled server.request faults for this arrival.

        Returns True when the connection was dropped (caller must stop
        processing the frame)."""
        if self.fault_injector is None:
            return False
        dropped = False
        for event in self.fault_injector.step(SITE_SERVER_REQUEST):
            if event.kind == SHED_STORM:
                self._storm_remaining += max(1, event.count)
            elif event.kind == CONN_DROP:
                dropped = True
        if dropped:
            conn.closed = True
            transport = conn.writer.transport
            if transport is not None:
                transport.abort()
        return dropped

    def _release_admission(
        self,
        entry: _InFlight,
        latency: Optional[float] = None,
        *,
        ok: bool = True,
    ) -> None:
        ctl = entry.admission_ctl if entry.admission_ctl is not None else self.admission
        if ctl is not None and entry.admission_class is not None:
            ctl.release(entry.admission_class, latency, ok=ok)

    async def _handle_request(self, conn: _Connection, frame: Frame) -> None:
        if self._step_request_faults(conn):
            return
        if self._draining:
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(
                    codec.ERR_DRAINING, "service is draining"
                ),
            )
            return
        try:
            request, deadline, req_tenant = codec.decode_request(
                frame.type, frame.payload
            )
        except (FramingError, ValueError) as exc:
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(codec.ERR_BAD_FRAME, str(exc)),
            )
            return

        # Multi-tenant: every request bills to the connection's HELLO
        # tenant; a request naming a *different* tenant is rejected (no
        # cross-tenant submission on someone else's connection).
        if self.tenants is not None:
            if not conn.tenant:
                await conn.send(
                    FrameType.ERROR,
                    frame.request_id,
                    codec.encode_error(
                        codec.ERR_TENANT,
                        "connection is not bound to a tenant "
                        "(send HELLO with a tenant id first)",
                    ),
                )
                return
            if req_tenant and req_tenant != conn.tenant:
                await conn.send(
                    FrameType.ERROR,
                    frame.request_id,
                    codec.encode_error(
                        codec.ERR_TENANT,
                        f"request tenant {req_tenant!r} does not match "
                        f"connection tenant {conn.tenant!r}",
                    ),
                )
                return

        loop = asyncio.get_running_loop()
        abs_deadline = (
            float("inf") if deadline is None else loop.time() + deadline
        )

        # Injected shed storm: forced ERR_SHED bursts exercise client
        # retry/backoff without needing a real overload.
        if self._storm_remaining > 0:
            self._storm_remaining -= 1
            self._record_shed(conn.tenant)
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(
                    codec.ERR_SHED, "request shed by injected shed storm"
                ),
            )
            return

        # Adaptive admission: fail-fast before the request consumes an
        # in-flight slot when its class sits at the AIMD target.  On a
        # multi-tenant service, tenants with a quota p99 budget run
        # their own controller (per-tenant admission targets).
        admission = self._tenant_admission.get(conn.tenant, self.admission)
        admission_class: Optional[str] = None
        if admission is not None:
            admission_class = classify_request(request)
            if not admission.try_admit(admission_class):
                self.admit_rejected += 1
                scheduler = self._scheduler(conn.tenant)
                if scheduler is not None:
                    scheduler.record_admit_rejected(
                        tenant=conn.tenant if self.tenants is not None else None
                    )
                if self.tenants is not None:
                    self.tenants.get(conn.tenant).accounting.record_admit_rejected()
                await conn.send(
                    FrameType.ERROR,
                    frame.request_id,
                    codec.encode_error(
                        codec.ERR_ADMIT,
                        f"admission target reached for class "
                        f"{admission_class!r}; retry with backoff",
                    ),
                )
                return

        if not await self._admit(conn, frame.request_id, abs_deadline):
            if admission is not None and admission_class is not None:
                admission.release(admission_class, None, ok=False)
            return
        entry = conn.in_flight[frame.request_id]
        entry.admission_class = admission_class
        entry.admission_ctl = admission
        entry.admitted_at = loop.time()

        if self.tenants is not None:
            # Fair dispatch: the request waits in the weighted queue;
            # _pump moves it onto its tenant's session as slots free.
            tenant = self.tenants.get(conn.tenant)
            tenant.accounting.record_accepted()
            self.accepted += 1
            cost = float(getattr(request, "num_queries", 1) or 1)
            self._fair.push(
                conn.tenant,
                (conn, entry, request, cost),
                deadline=entry.deadline,
            )
            self._pump()
            return

        try:
            cf_future = self.session.submit(request)
        except (CapabilityError, RuntimeError, ValueError, TypeError) as exc:
            conn.in_flight.pop(frame.request_id, None)
            self._release_admission(entry, ok=False)
            code = (
                codec.ERR_CAPABILITY
                if isinstance(exc, CapabilityError)
                else codec.ERR_REMOTE
            )
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(code, str(exc)),
            )
            return
        self.accepted += 1
        future = asyncio.wrap_future(cf_future, loop=loop)
        entry.cf_future = cf_future
        task = asyncio.ensure_future(self._respond(conn, entry, future))
        conn.tasks.add(task)
        task.add_done_callback(conn.tasks.discard)

    def _pump(self) -> None:
        """Move fair-queue entries onto tenant sessions while executing
        slots are free.  Runs only on the event loop, so the slot
        counter needs no lock; every completion re-pumps."""
        loop = asyncio.get_running_loop()
        while self._executing < self._fair_slots:
            popped = self._fair.pop(cost=lambda it: it[3])
            if popped is None:
                return
            tenant_id, (conn, entry, request, _cost) = popped
            if conn.closed or entry.request_id not in conn.in_flight:
                continue  # connection died while the request was queued
            tenant = self.tenants.get(tenant_id)
            try:
                cf_future = tenant.session.submit(request)
            except (CapabilityError, RuntimeError, ValueError, TypeError) as exc:
                conn.in_flight.pop(entry.request_id, None)
                self._release_admission(entry, ok=False)
                tenant.accounting.record_failed()
                self.failed += 1
                code = (
                    codec.ERR_CAPABILITY
                    if isinstance(exc, CapabilityError)
                    else codec.ERR_REMOTE
                )
                send = conn.send(
                    FrameType.ERROR,
                    entry.request_id,
                    codec.encode_error(code, str(exc)),
                )
                task = asyncio.ensure_future(send)
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
                continue
            self._executing += 1
            future = asyncio.wrap_future(cf_future, loop=loop)
            entry.cf_future = cf_future
            task = asyncio.ensure_future(
                self._respond(conn, entry, future, tenant=tenant)
            )
            conn.tasks.add(task)
            task.add_done_callback(self._make_slot_releaser(conn))

    def _make_slot_releaser(self, conn: _Connection):
        def _release(task: "asyncio.Task") -> None:
            conn.tasks.discard(task)
            self._executing -= 1
            self._pump()

        return _release

    async def _admit(
        self, conn: _Connection, request_id: int, abs_deadline: float
    ) -> bool:
        """Bounded-in-flight admission with oldest-deadline shedding.

        Returns True when ``request_id`` was admitted (and placed in
        the in-flight set); False when it was shed (an ``ERR_SHED``
        frame has been written)."""
        while len(conn.in_flight) >= self.max_in_flight:
            victim = min(
                conn.in_flight.values(), key=lambda e: e.deadline, default=None
            )
            # The incoming request is its own shedding candidate: when
            # every queued entry out-deadlines it — or the oldest-
            # deadline victim already started executing, so cancel()
            # fails — the incoming request is the one dropped.
            if victim is None or victim.deadline >= abs_deadline or not (
                victim.cf_future is not None and victim.cf_future.cancel()
            ):
                self._record_shed(conn.tenant)
                await conn.send(
                    FrameType.ERROR,
                    request_id,
                    codec.encode_error(
                        codec.ERR_SHED,
                        f"in-flight queue full ({self.max_in_flight}); "
                        f"request shed by oldest-deadline policy",
                    ),
                )
                return False
            # victim.future.cancel() succeeded; its _respond task will
            # observe the CancelledError and answer ERR_SHED.
            self._record_shed(conn.tenant)
            conn.in_flight.pop(victim.request_id, None)
        conn.in_flight[request_id] = _InFlight(
            request_id=request_id, deadline=abs_deadline
        )
        return True

    async def _respond(
        self,
        conn: _Connection,
        entry: _InFlight,
        future: "asyncio.Future",
        tenant=None,
    ) -> None:
        request_id = entry.request_id
        try:
            outcome = await future
        except asyncio.CancelledError:
            # the shed was accounted (globally and per-tenant) by the
            # _admit call that cancelled this future
            conn.in_flight.pop(request_id, None)
            self._release_admission(entry, ok=False)
            await conn.send(
                FrameType.ERROR,
                request_id,
                codec.encode_error(
                    codec.ERR_SHED,
                    "request shed by oldest-deadline policy while queued",
                ),
            )
            return
        except BaseException as exc:
            conn.in_flight.pop(request_id, None)
            self._release_admission(entry, ok=False)
            self.failed += 1
            if tenant is not None:
                tenant.accounting.record_failed()
            code = (
                codec.ERR_CAPABILITY
                if isinstance(exc, CapabilityError)
                else codec.ERR_REMOTE
            )
            await conn.send(
                FrameType.ERROR,
                request_id,
                codec.encode_error(code, f"{type(exc).__name__}: {exc}"),
            )
            return
        conn.in_flight.pop(request_id, None)
        self.completed += 1
        latency = asyncio.get_running_loop().time() - entry.admitted_at
        if tenant is not None:
            tenant.accounting.record_completed(latency)
        self._release_admission(entry, latency)
        ftype, payload = codec.encode_search_outcome(outcome)
        await conn.send(ftype, request_id, payload)

    async def _handle_outsource(self, conn: _Connection, frame: Frame) -> None:
        if self._draining:
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(codec.ERR_DRAINING, "service is draining"),
            )
            return
        if self.tenants is not None and not conn.tenant:
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(
                    codec.ERR_TENANT,
                    "connection is not bound to a tenant "
                    "(send HELLO with a tenant id first)",
                ),
            )
            return
        session = self._session_for(conn.tenant)
        try:
            db_bits = codec.decode_outsource(frame.payload)
        except (FramingError, ValueError) as exc:
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(codec.ERR_BAD_FRAME, str(exc)),
            )
            return
        loop = asyncio.get_running_loop()
        try:
            # Packing + encryption is CPU-heavy; keep the loop live.
            async with self._outsource_lock:
                await loop.run_in_executor(None, session.outsource, db_bits)
        except BaseException as exc:
            self.failed += 1
            await conn.send(
                FrameType.ERROR,
                frame.request_id,
                codec.encode_error(
                    codec.ERR_REMOTE, f"{type(exc).__name__}: {exc}"
                ),
            )
            return
        await conn.send(
            FrameType.OUTSOURCE_OK,
            frame.request_id,
            codec.encode_outsource_ok(session.db_bit_length or 0),
        )


# ---------------------------------------------------------------------------
# Event-loop-on-a-thread harness
# ---------------------------------------------------------------------------


class ServiceThread:
    """Run an :class:`AsyncSearchService` on a dedicated loop thread.

    The loopback harness behind :class:`repro.net.RemoteEngine`'s
    self-serving mode, the test suite and ``benchmarks/bench_net.py``:
    ``start()`` returns once the socket is bound (``.address`` is then
    valid), ``stop()`` drains gracefully and joins the thread.
    """

    def __init__(self, engine="bfv-sharded", *, session=None, **kwargs):
        self._engine = engine
        self._session = session
        self._kwargs = kwargs
        self._ready = threading.Event()
        self._address: Optional[tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._service: Optional[AsyncSearchService] = None
        self._thread: Optional[threading.Thread] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("service thread is not started")
        return self._address

    @property
    def service(self) -> AsyncSearchService:
        if self._service is None:
            raise RuntimeError("service thread is not started")
        return self._service

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            raise RuntimeError("service thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-net-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                self._service = AsyncSearchService(
                    self._engine, session=self._session, **self._kwargs
                )
                self._loop = asyncio.get_running_loop()
                self._address = await self._service.start()
            except BaseException as exc:  # surface constructor failures
                self._startup_error = exc
                self._ready.set()
                return
            self._ready.set()
            await self._service.serve_forever()
            await self._service.shutdown_connections()

        asyncio.run(main())

    def stop(self) -> None:
        """Graceful drain from any thread; joins the loop thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._service is not None:
            try:
                self._loop.call_soon_threadsafe(self._service.begin_drain)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=30)
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
