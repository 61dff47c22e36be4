"""The session layer: lifecycle + sync/async execution over one engine.

A :class:`Session` owns exactly one engine (and therefore one key set
and one outsourced database) and exposes:

* ``search(request)`` — synchronous execution of any request type;
* ``submit(request)`` — asynchronous submission returning a
  :class:`concurrent.futures.Future`; a background dispatcher drains
  the submission queue, and consecutive exact requests are coalesced
  into one native batch when the engine declares ``batching`` (the
  sharded engine then executes them as one batch, with variant-cache
  sharing and deduplication);
* context-manager lifecycle (``with repro.open_session(...) as s:``) —
  exit drains pending futures and releases the dispatcher thread.

Futures resolve in submission order *per request* — the i-th submitted
request always receives the result of its own query, whatever internal
coalescing happened.
"""

from __future__ import annotations

import queue as queue_mod
import threading
from concurrent.futures import Future
from typing import List, Optional, Sequence, Union

import numpy as np

from ..verify import VerifyLike, VerifyPolicy
from .capabilities import Capabilities
from .engines import Engine
from .requests import (
    BatchSearch,
    BatchSearchResult,
    ExactSearch,
    SearchRequest,
    SearchResult,
)

RequestLike = Union[SearchRequest, np.ndarray, Sequence[int], str]


def _as_request(request: RequestLike, verify: VerifyLike = None) -> SearchRequest:
    """Accept the convenient spellings: a request object, raw query
    bits, or an ASCII needle."""
    policy = VerifyPolicy.coerce(verify)
    if isinstance(request, SearchRequest):
        if verify is None or request.verify is policy:
            return request
        # dataclasses.replace on the concrete type keeps the subclass
        import dataclasses

        return dataclasses.replace(request, verify=policy)
    if isinstance(request, str):
        return ExactSearch.from_text(request, verify=policy)
    return ExactSearch.from_bits(request, verify=policy)


class Session:
    """One open engine: database, keys, caches, and a dispatch loop."""

    def __init__(self, engine: Engine, tenant: Optional[str] = None):
        self.engine = engine
        #: tenant id this session serves under ("" = single-tenant)
        self.tenant = tenant or ""
        self._queue: "queue_mod.Queue" = queue_mod.Queue()
        self._dispatcher: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._closed = False
        self._pending: List[Future] = []

    # -- introspection ---------------------------------------------------

    @property
    def capabilities(self) -> Capabilities:
        return self.engine.capabilities

    @property
    def engine_key(self) -> str:
        return self.engine.key

    @property
    def db_bit_length(self) -> Optional[int]:
        return self.engine.db_bit_length

    # -- lifecycle -------------------------------------------------------

    def outsource(self, db_bits) -> "Session":
        """Pack/encrypt + store the database; returns ``self`` so
        ``open_session(...).outsource(db)`` chains."""
        self._check_open()
        self.engine.outsource(np.asarray(db_bits, dtype=np.uint8))
        return self

    def close(self) -> None:
        """Drain pending async work and stop the dispatcher."""
        if self._closed:
            return
        self.drain()
        self._closed = True
        with self._lock:
            dispatcher = self._dispatcher
            self._dispatcher = None
        if dispatcher is not None:
            self._queue.put(None)  # wake + stop
            dispatcher.join()
        self.engine.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- synchronous execution -------------------------------------------

    def search(
        self, request: RequestLike, *, verify: VerifyLike = None
    ) -> Union[SearchResult, BatchSearchResult]:
        """Execute one request synchronously.

        Accepts a typed request, raw query bits (array/sequence) or an
        ASCII string; ``verify`` overrides the request's policy.
        """
        self._check_open()
        return self.engine.execute(_as_request(request, verify))

    def search_batch(
        self, queries: Sequence, *, verify: VerifyLike = None
    ) -> BatchSearchResult:
        """Execute many exact queries as one (possibly native) batch."""
        self._check_open()
        policy = VerifyPolicy.coerce(verify)
        batch = BatchSearch(
            tuple(
                q if isinstance(q, ExactSearch) else ExactSearch.from_bits(q)
                for q in queries
            ),
            verify=policy,
        )
        return self.engine.execute(batch)

    # -- asynchronous execution ------------------------------------------

    def submit(
        self, request: RequestLike, *, verify: VerifyLike = None
    ) -> "Future":
        """Queue one request; returns a future of its result.

        Capability validation happens *now* (submit raises on a request
        the engine cannot serve — no dead futures), execution happens on
        the dispatcher thread.
        """
        self._check_open()
        req = _as_request(request, verify)
        self.engine.capabilities.check(req, self.engine.key)
        future: Future = Future()
        # Prune resolved futures so a long-lived session that never
        # calls drain() does not accumulate every past result.
        self._pending = [f for f in self._pending if not f.done()]
        self._pending.append(future)
        self._queue.put((req, future))
        self._ensure_dispatcher()
        return future

    def submit_batch(
        self, queries: Sequence, *, verify: VerifyLike = None
    ) -> List["Future"]:
        """Submit many exact queries; one future per query, in order."""
        return [self.submit(q, verify=verify) for q in queries]

    def drain(self) -> None:
        """Block until every submitted future has resolved."""
        import concurrent.futures

        pending, self._pending = self._pending, []
        for future in pending:
            if not future.done():
                try:
                    future.exception()  # waits; caller re-raises via result()
                except concurrent.futures.CancelledError:
                    pass  # cancelled while queued (e.g. shed): nothing to wait
        # keep unfinished ones (exception() waited, so none remain)

    def _ensure_dispatcher(self) -> None:
        with self._lock:
            if self._dispatcher is None or not self._dispatcher.is_alive():
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"session-{self.engine.key}",
                    daemon=True,
                )
                self._dispatcher.start()

    # -- dispatcher ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            # Coalesce whatever else is already queued: consecutive
            # exact requests with one policy become a native batch.
            while True:
                try:
                    nxt = self._queue.get_nowait()
                except queue_mod.Empty:
                    break
                if nxt is None:
                    self._run(batch)
                    return
                batch.append(nxt)
            self._run(batch)

    def _run(self, items) -> None:
        """Execute a coalesced run, preserving per-future pairing."""
        i = 0
        while i < len(items):
            req, _ = items[i]
            group = [items[i]]
            if isinstance(req, ExactSearch) and self.engine.capabilities.batching:
                while (
                    i + len(group) < len(items)
                    and isinstance(items[i + len(group)][0], ExactSearch)
                    and items[i + len(group)][0].verify is req.verify
                ):
                    group.append(items[i + len(group)])
            if len(group) > 1:
                self._run_native_batch(group)
            else:
                self._run_single(req, items[i][1])
            i += len(group)

    def _run_single(self, req: SearchRequest, future: "Future") -> None:
        # A future cancelled while queued (e.g. shed by the network
        # front end's admission control) must neither execute nor be
        # resolved — set_result on a cancelled future raises and would
        # kill the dispatcher thread.
        if not future.set_running_or_notify_cancel():
            return
        try:
            result = self.engine.execute(req)
        except BaseException as exc:
            future.set_exception(exc)
        else:
            future.set_result(result)

    def _run_native_batch(self, group) -> None:
        group = [
            (req, future)
            for req, future in group
            if future.set_running_or_notify_cancel()
        ]
        if not group:
            return
        requests = tuple(req for req, _ in group)
        try:
            batch_result = self.engine.execute(
                BatchSearch(requests, verify=requests[0].verify)
            )
        except BaseException as exc:
            for _, future in group:
                future.set_exception(exc)
            return
        for (_, future), result in zip(group, batch_result.results):
            future.set_result(result)


def open_session(
    engine: Union[str, Engine],
    *,
    db_bits=None,
    registry=None,
    tenant=None,
    **engine_kwargs,
) -> Session:
    """One call from engine name to ready-to-search session.

    ``engine`` is a registry key (``"bfv"``, ``"bfv-sharded"``,
    ``"yasuda"``, ...) or an already-built :class:`Engine`.  Keyword
    arguments flow to the engine constructor (``params=``,
    ``key_seed=``, ``num_shards=``, ``cache_capacity=``, ...),
    which owns key generation and cache wiring.  Passing ``db_bits``
    also outsources the database immediately:

    >>> import numpy as np, repro
    >>> db = np.zeros(4096, dtype=np.uint8); db[160:192] = 1
    >>> with repro.open_session("bfv-sharded", num_shards=2,
    ...                         key_seed=1, db_bits=db) as s:
    ...     s.search(np.ones(32, dtype=np.uint8)).matches
    (160,)
    """
    if isinstance(engine, Engine):
        if engine_kwargs:
            raise TypeError(
                "engine kwargs only apply when opening by registry key"
            )
        built = engine
    else:
        from .registry import DEFAULT_REGISTRY

        reg = registry or DEFAULT_REGISTRY
        if tenant:
            # Engines that declare a ``tenant`` parameter (the remote
            # client binds it at HELLO; the sharded engine stamps its
            # serve reports) receive the session's tenant identity.
            import inspect

            try:
                factory_params = inspect.signature(
                    reg.spec(engine).factory
                ).parameters
            except (TypeError, ValueError):
                factory_params = {}
            if "tenant" in factory_params:
                engine_kwargs.setdefault("tenant", tenant)
        built = reg.create(engine, **engine_kwargs)
    session = Session(built, tenant=tenant)
    if db_bits is not None:
        session.outsource(db_bits)
    return session
