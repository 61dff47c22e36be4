"""Asyncio TCP front end over the unified search facade.

:class:`AsyncSearchService` puts a real socket between callers and the
:mod:`repro.api` session layer.  One service holds one
:class:`~repro.tenancy.TenantRegistry`: the one it was given, or a
registry of one default tenant (id ``""``) around the session it was
given or opened (``open_session``-style lifecycle: the constructor
resolves an engine key through the registry, generates keys and wires
caches).  A connection's first frame must be a HELLO of this protocol
version naming a registered tenant; it is read under
:data:`~repro.net.codec.MAX_HELLO_BYTES`, and anything else is answered
with an error and the connection closed.  Every request takes one path
— the connection's tenant, admission, the weighted fair queue,
:meth:`Session.submit` on that tenant's session — so concurrent
connections coalesce into the sharded engine's native serve-pool
batches exactly like concurrent in-process submitters do.

Concurrency and flow control
----------------------------
* The event loop only ever decodes frames and moves futures; all
  cryptography runs on the session dispatcher thread (queries) or the
  default executor (database outsourcing; rendering the last serve
  report into a STATS answer, whose first read replays the device model).
* **Admission control**: each connection holds a bounded in-flight set
  (``max_in_flight``).  When a request arrives over a full set, the
  entry with the *oldest deadline* — the one least likely to be worth
  serving — is shed: a queued victim is cancelled and answered with an
  ``ERR_SHED`` frame, or the incoming request itself is shed when its
  deadline is the oldest (or the victim already started executing).
  A shed is counted once here and once in the tenant's accounting row.
* **Fair dispatch**: while more than one tenant is registered, at most
  ``_FAIR_SLOTS`` requests execute at once, so the weighted queue — not
  arrival order — decides whose request runs next.
* **Graceful drain**: :meth:`begin_drain` (wired to SIGTERM by
  ``python -m repro serve-net``) stops accepting connections, answers
  new requests with ``ERR_DRAINING``, waits for every in-flight future,
  then closes the registry (every session but one a caller lent);
  :meth:`serve_forever` returns so the process exits 0.
* A ``STATS`` frame answers with the serialized
  :class:`~repro.net.codec.ServiceStats`: admission counters, one
  accounting row per tenant that partitions them, and the most recent
  :class:`~repro.serve.report.ServeReport`.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import Future as _ConcurrentFuture
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Union

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
from ..tenancy.registry import Tenant, TenantRegistry
from ..utils.stats import percentile
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

#: requests executing on tenant sessions at once while tenants compete;
#: small, so a backlogged tenant's next request waits in the fair queue
#: (where weights order it) and not in a session's FIFO
_FAIR_SLOTS = 4


@dataclass
class _InFlight:
    """One admitted request awaiting its response frame."""

    request_id: int
    deadline: float  # absolute loop time; +inf when none was given
    #: the session-layer concurrent future (None while the request
    #: still waits in the fair queue); cancellation must target this
    #: one — its cancel() truthfully fails once the dispatcher started
    #: executing, whereas cancelling the asyncio wrapper "succeeds"
    #: even when the work keeps running underneath
    cf_future: Optional["_ConcurrentFuture"] = None
    #: admission class ("exact"/"wildcard"/"batch") when the adaptive
    #: controller admitted this request; None when it is disabled
    admission_class: Optional[str] = None
    #: the controller that admitted it (the tenant's private one when
    #: its quota sets a p99 budget, else the service's); release must
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
    #: the registered tenant this connection's HELLO named; the
    #: handshake binds it before any other frame is read
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

    async def send_error(self, request_id: int, code: int, message: str) -> None:
        await self.send(
            FrameType.ERROR, request_id, codec.encode_error(code, message)
        )


def _code_for(exc: BaseException) -> int:
    return (
        codec.ERR_CAPABILITY
        if isinstance(exc, CapabilityError)
        else codec.ERR_REMOTE
    )


def _inner_engine(tenant: Tenant):
    """The ShardedSearchEngine behind a tenant's session, if it is one
    (the only engine with circuit breakers)."""
    return getattr(tenant.session.engine, "engine", None)


def _with_report(stats: codec.ServiceStats, report) -> codec.ServiceStats:
    """``stats`` with the fields rendered from the most recent serve
    report.  Their first read runs that batch's device-model replay —
    tens of milliseconds — so the STATS handler calls this off the event
    loop (``ModelReplay``'s lock makes a racing second reader safe)."""
    if report is None:
        return stats
    return replace(
        stats,
        throughput_qps=report.throughput_qps,
        report_text=report.summary_table(),
        report_json=report.to_json(),
    )


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
        tenants: Optional[TenantRegistry] = None,
        **engine_kwargs,
    ):
        if isinstance(engine, Session) and session is None:
            session = engine
        registry = tenants
        if registry is not None and session is not None:
            raise TypeError(
                "pass either a tenant registry or a session, not both"
            )
        if engine_kwargs and (registry is not None or session is not None):
            raise TypeError(
                "engine kwargs only apply when the service opens its own "
                "session; build the Session or TenantRegistry with them"
            )
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if registry is None:
            owned = session is None
            if owned:
                session = open_session(engine, **engine_kwargs)
            registry = TenantRegistry.around(session, owned=owned)
        #: who this service serves.  Each connection is one of its
        #: tenants (named at HELLO), and every request runs on that
        #: tenant's session.  Drain closes it: a passed-in registry
        #: and a session opened here are closed, a passed-in session is
        #: left to its owner.
        self.registry: TenantRegistry = registry
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
        #: weighted oldest-deadline fair queue between per-connection
        #: admission and the tenant sessions
        self._fair = WeightedFairQueue()
        self._executing = 0
        for tenant in self.registry.tenants():
            self._fair.add_tenant(tenant.tenant_id, tenant.weight)
            if tenant.quota.p99_budget is not None:
                self._tenant_admission[tenant.tenant_id] = coerce_admission(
                    tenant.quota.p99_budget
                )
        #: the tenant whose request completed last: its engine holds the
        #: service's most recent ServeReport
        self._last_served: Optional[Tenant] = None
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
        #: renders STATS answers off the loop, on its own thread, not the
        #: default pool: a STATS just before an OUTSOURCE races that pool
        #: into a second worker, and outsourcing on two threads keeps two
        #: malloc arenas at the encryption peak (+16 MiB RSS, hotset-churn)
        self._stats_executor = ThreadPoolExecutor(1, "repro-net-stats")
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
            for tenant in self.registry.tenants():
                install_engine_injector(
                    tenant.session.engine, self.fault_injector
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
        # close_all (idempotent) joins the dispatcher thread of every
        # session the registry owns; keep the loop responsive meanwhile.
        await asyncio.get_running_loop().run_in_executor(
            None, self.registry.close_all
        )
        if self._drained is not None:
            self._drained.set()

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
        self._stats_executor.shutdown()  # no handler is left to use it

    # -- stats -----------------------------------------------------------

    def _record_shed(self, tenant: Tenant) -> None:
        """A shed is counted here and in the tenant's row, nowhere else."""
        self.shed += 1
        tenant.accounting.record_shed()

    def stats(self) -> codec.ServiceStats:
        """Point-in-time operational snapshot (the STATS frame body):
        aggregates over every tenant, the per-tenant rows that partition
        the counters in :attr:`ServiceStats.tenants_json`, and the most
        recent serve report."""
        return _with_report(*self._stats_parts())

    def _stats_parts(self):
        """The snapshot without its report fields, and the report they
        render from; every read of loop-owned state happens here."""
        rows = self.registry.accounting_snapshot()
        window: List[float] = []
        degraded = served = hits = misses = 0
        for tenant in self.registry.tenants():
            row = rows.setdefault(tenant.tenant_id, {})
            row["dispatched"] = self._fair.dispatched(tenant.tenant_id)
            row["backlog"] = self._fair.backlog(tenant.tenant_id)
            window.extend(tenant.accounting.latency_window())
            degraded += len(
                getattr(_inner_engine(tenant), "degraded_shards", ()) or ()
            )
            if tenant.cache is not None:
                cache_stats = tenant.cache.stats()
                hits += cache_stats.hits
                misses += cache_stats.misses
            report = getattr(tenant.session.engine, "last_serve_report", None)
            if report is not None:
                served += report.num_queries
        report = None
        if self._last_served is not None:
            report = getattr(
                self._last_served.session.engine, "last_serve_report", None
            )
        lookups = hits + misses
        return codec.ServiceStats(
            active_connections=len(self._connections),
            total_connections=self.total_connections,
            accepted=self.accepted,
            completed=self.completed,
            shed=self.shed,
            failed=self.failed,
            draining=self._draining,
            served_queries=served,
            wall_p50=percentile(window, 50),
            wall_p95=percentile(window, 95),
            wall_p99=percentile(window, 99),
            throughput_qps=0.0,
            cache_hit_rate=hits / lookups if lookups else 0.0,
            admit_rejected=self.admit_rejected,
            degraded_shards=degraded,
            report_text="",
            tenants_json=json.dumps(rows, sort_keys=True),
        ), report

    def _welcome(self, tenant: Tenant) -> codec.Welcome:
        session = tenant.session
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
            tenant=tenant.tenant_id,
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

    async def _handshake(self, conn: _Connection) -> bool:
        """Read the connection's first frame under the HELLO bound.  A
        HELLO of this protocol version naming a registered tenant binds
        that tenant and is answered with WELCOME; anything else is
        answered with an error (or, when it is not a frame within the
        bound, nothing) and False tells the caller to close."""
        frame = await read_frame(conn.reader, codec.MAX_HELLO_BYTES)
        if frame is None:
            return False
        if frame.type is not FrameType.HELLO:
            await conn.send_error(
                frame.request_id,
                codec.ERR_BAD_FRAME,
                f"expected HELLO as the first frame, got {frame.type.name}",
            )
            return False
        version, tenant = codec.decode_hello(frame.payload)
        if version != PROTOCOL_VERSION:
            await conn.send_error(
                frame.request_id,
                codec.ERR_VERSION,
                f"protocol version {version} is not served; "
                f"this service speaks CMN1 v{PROTOCOL_VERSION}",
            )
            return False
        if tenant not in self.registry:
            await conn.send_error(
                frame.request_id, codec.ERR_TENANT, f"unknown tenant {tenant!r}"
            )
            return False
        conn.tenant = tenant
        await conn.send(
            FrameType.WELCOME,
            frame.request_id,
            codec.encode_welcome(self._welcome(self.registry.get(tenant))),
        )
        return True

    async def _connection_loop(self, conn: _Connection) -> None:
        if not await self._handshake(conn):
            return
        while True:
            frame = await read_frame(conn.reader)
            if frame is None:
                # Clean EOF.  In-flight responses for this peer are
                # moot, but the session work completes regardless.
                return
            if frame.type in _REQUEST_FRAMES:
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
                stats = await asyncio.get_running_loop().run_in_executor(
                    self._stats_executor, _with_report, *self._stats_parts()
                )
                await conn.send(
                    FrameType.STATS_RESULT,
                    frame.request_id,
                    codec.encode_stats(stats),
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
                await conn.send_error(
                    frame.request_id,
                    codec.ERR_BAD_FRAME,
                    f"unexpected frame type {frame.type.name}",
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
            await conn.send_error(
                frame.request_id, codec.ERR_DRAINING, "service is draining"
            )
            return
        try:
            request, deadline = codec.decode_request(frame.type, frame.payload)
        except (FramingError, ValueError) as exc:
            await conn.send_error(
                frame.request_id, codec.ERR_BAD_FRAME, str(exc)
            )
            return
        # every request bills to the tenant its connection's HELLO named
        tenant = self.registry.get(conn.tenant)

        loop = asyncio.get_running_loop()
        abs_deadline = (
            float("inf") if deadline is None else loop.time() + deadline
        )

        # Injected shed storm: forced ERR_SHED bursts exercise client
        # retry/backoff without needing a real overload.
        if self._storm_remaining > 0:
            self._storm_remaining -= 1
            self._record_shed(tenant)
            await conn.send_error(
                frame.request_id,
                codec.ERR_SHED,
                "request shed by injected shed storm",
            )
            return

        # Adaptive admission: fail-fast before the request consumes an
        # in-flight slot when its class sits at the AIMD target.  A
        # tenant with a quota p99 budget runs its own controller.
        admission = self._tenant_admission.get(conn.tenant, self.admission)
        admission_class: Optional[str] = None
        if admission is not None:
            admission_class = classify_request(request)
            if not admission.try_admit(admission_class):
                self.admit_rejected += 1
                tenant.accounting.record_admit_rejected()
                await conn.send_error(
                    frame.request_id,
                    codec.ERR_ADMIT,
                    f"admission target reached for class "
                    f"{admission_class!r}; retry with backoff",
                )
                return

        if not await self._admit(conn, tenant, frame.request_id, abs_deadline):
            if admission is not None and admission_class is not None:
                admission.release(admission_class, None, ok=False)
            return
        entry = conn.in_flight[frame.request_id]
        entry.admission_class = admission_class
        entry.admission_ctl = admission
        entry.admitted_at = loop.time()

        # The request waits in the weighted queue; _pump moves it onto
        # its tenant's session (at once, unless tenants compete for
        # the executing slots).
        self.accepted += 1
        tenant.accounting.record_accepted()
        cost = float(getattr(request, "num_queries", 1) or 1)
        self._fair.push(
            conn.tenant, (conn, entry, request, cost), deadline=entry.deadline
        )
        self._pump()

    def _pump(self) -> None:
        """Move fair-queue entries onto tenant sessions.  Runs only on
        the event loop, so the slot counter needs no lock; every
        completion re-pumps."""
        loop = asyncio.get_running_loop()
        # The slot bound is what makes the queue's order matter, and it
        # costs Session.submit its coalescing beyond _FAIR_SLOTS
        # requests (5-7x on hot-key pipelined traffic, docs/perf.md): a
        # lone tenant has nobody to be fair to, so it is not bounded.
        while len(self.registry) <= 1 or self._executing < _FAIR_SLOTS:
            popped = self._fair.pop(cost=lambda it: it[3])
            if popped is None:
                return
            tenant_id, (conn, entry, request, _cost) = popped
            if conn.closed or conn.in_flight.get(entry.request_id) is not entry:
                continue  # connection died, or the entry was shed while queued
            tenant = self.registry.get(tenant_id)
            try:
                cf_future = tenant.session.submit(request)
            except (CapabilityError, RuntimeError, ValueError, TypeError) as exc:
                conn.in_flight.pop(entry.request_id, None)
                self._release_admission(entry, ok=False)
                self.failed += 1
                tenant.accounting.record_failed()
                task = asyncio.ensure_future(
                    conn.send_error(entry.request_id, _code_for(exc), str(exc))
                )
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
                continue
            self._executing += 1
            future = asyncio.wrap_future(cf_future, loop=loop)
            entry.cf_future = cf_future
            task = asyncio.ensure_future(
                self._respond(conn, tenant, entry, future)
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
        self,
        conn: _Connection,
        tenant: Tenant,
        request_id: int,
        abs_deadline: float,
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
            if (
                victim is None
                or victim.deadline >= abs_deadline
                or (
                    victim.cf_future is not None
                    and not victim.cf_future.cancel()
                )
            ):
                self._record_shed(tenant)
                await conn.send_error(
                    request_id,
                    codec.ERR_SHED,
                    f"in-flight queue full ({self.max_in_flight}); "
                    f"request shed by oldest-deadline policy",
                )
                return False
            self._record_shed(tenant)
            conn.in_flight.pop(victim.request_id, None)
            if victim.cf_future is None:
                # Still in the fair queue, which skips an entry that
                # left the in-flight set; no _respond task exists yet.
                await self._answer_shed(conn, victim)
            # else cancel() succeeded: the victim's _respond task
            # observes the CancelledError and answers ERR_SHED.
        conn.in_flight[request_id] = _InFlight(
            request_id=request_id, deadline=abs_deadline
        )
        return True

    async def _answer_shed(self, conn: _Connection, entry: _InFlight) -> None:
        """Free a queued victim's admission slot and tell its client;
        the shed itself was accounted by the _admit call that chose it."""
        self._release_admission(entry, ok=False)
        await conn.send_error(
            entry.request_id,
            codec.ERR_SHED,
            "request shed by oldest-deadline policy while queued",
        )

    async def _respond(
        self,
        conn: _Connection,
        tenant: Tenant,
        entry: _InFlight,
        future: "asyncio.Future",
    ) -> None:
        request_id = entry.request_id
        try:
            outcome = await future
        except asyncio.CancelledError:
            conn.in_flight.pop(request_id, None)
            await self._answer_shed(conn, entry)
            return
        except BaseException as exc:
            conn.in_flight.pop(request_id, None)
            self._release_admission(entry, ok=False)
            self.failed += 1
            tenant.accounting.record_failed()
            await conn.send_error(
                request_id, _code_for(exc), f"{type(exc).__name__}: {exc}"
            )
            return
        conn.in_flight.pop(request_id, None)
        self.completed += 1
        self._last_served = tenant
        latency = asyncio.get_running_loop().time() - entry.admitted_at
        tenant.accounting.record_completed(latency)
        self._release_admission(entry, latency)
        ftype, payload = codec.encode_search_outcome(outcome)
        await conn.send(ftype, request_id, payload)

    async def _handle_outsource(self, conn: _Connection, frame: Frame) -> None:
        if self._draining:
            await conn.send_error(
                frame.request_id, codec.ERR_DRAINING, "service is draining"
            )
            return
        tenant = self.registry.get(conn.tenant)
        session = tenant.session
        try:
            db_bits = codec.decode_outsource(frame.payload)
        except (FramingError, ValueError) as exc:
            await conn.send_error(
                frame.request_id, codec.ERR_BAD_FRAME, str(exc)
            )
            return
        loop = asyncio.get_running_loop()
        try:
            # Packing + encryption is CPU-heavy; keep the loop live.
            async with self._outsource_lock:
                await loop.run_in_executor(None, session.outsource, db_bits)
        except BaseException as exc:
            self.failed += 1
            tenant.accounting.record_failed()
            await conn.send_error(
                frame.request_id,
                codec.ERR_REMOTE,
                f"{type(exc).__name__}: {exc}",
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

    def __init__(self, *args, **kwargs):
        #: :class:`AsyncSearchService` arguments (it is built on the
        #: loop thread, so ``start()`` surfaces constructor failures)
        self._args = args
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
                self._service = AsyncSearchService(*self._args, **self._kwargs)
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
