"""Run-time span tracing, installed from outside the program.

The repo has no spans of its own yet, so the traced run wraps calls
into each layer's public functions when the benchmark starts:
:data:`TARGETS` names them as ``module:attr.path`` strings that are
resolved at run time.  A target a later refactor removed is skipped
and listed in ``Tracer.missing`` — never a crash, because later PRs may
not edit this directory.

A span records name, start, end, thread, request ordinal and the span
that caused it.  The parent is the innermost open span of the calling
thread; a ``serve-worker-*`` thread with none attaches to the single
open ``search_batch`` span of the process; ``Engine.execute`` attaches
to the ``Session.submit`` span(s) whose request it runs.  Spans stay in
memory until :func:`dump_spans`.

Clocks: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one
clock for every process of the host, so client and server spans share a
time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: CMN1 frame header bytes in front of every payload
FRAME_HEADER_BYTES = 17
WORKER_THREAD_PREFIX = "serve-worker"


class Span:
    __slots__ = ("id", "name", "t0", "t1", "thread", "ordinal", "parent", "attrs")

    def __init__(self, id, name, t0, thread, ordinal=None, parent=None):
        self.id = id
        self.name = name
        self.t0 = t0
        self.t1 = t0
        self.thread = thread
        self.ordinal = ordinal
        self.parent = parent
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, obj: dict) -> "Span":
        span = cls(obj["id"], obj["name"], obj["t0"], obj["thread"],
                   obj["ordinal"], obj["parent"])
        span.t1 = obj["t1"]
        span.attrs = obj["attrs"]
        return span


class Tracer:
    """Span store of one process (``proc`` prefixes the span ids)."""

    def __init__(self, proc: str):
        self.proc = proc
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: the open ShardedSearchEngine.search_batch span, if any
        self.open_batch: Optional[Span] = None
        #: id(request) -> open Session.submit span
        self.submitted: Dict[int, Span] = {}
        self.submit_count = itertools.count(1)
        self._originals: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, *, parent: Optional[Span] = None,
              ordinal: Optional[int] = None, t0: Optional[float] = None) -> Span:
        thread = threading.current_thread().name
        if parent is None:
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif thread.startswith(WORKER_THREAD_PREFIX):
                parent = self.open_batch
        if ordinal is None and parent is not None:
            ordinal = parent.ordinal
        span = Span(
            f"{self.proc}{next(self._ids)}", name,
            time.perf_counter() if t0 is None else t0, thread, ordinal,
            None if parent is None else parent.id,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.t1 = time.perf_counter()

    def push(self, span: Span) -> None:
        self._stack().append(span)

    def pop(self) -> None:
        self._stack().pop()

    # -- wrapping --------------------------------------------------------

    def install(self, targets: Iterable["Target"]) -> None:
        for target in targets:
            try:
                owner, attr = _resolve(target.path)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            raw = inspect.getattr_static(owner, attr)
            original = getattr(owner, attr)
            wrapper = target.make(self, target.span, original)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)


def _resolve(path: str) -> Tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    getattr(owner, attr)  # AttributeError when the target is gone
    return owner, attr


def dump_spans(spans: Iterable[Span], path) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict()) + "\n")


def load_spans(path) -> List[Span]:
    with open(path) as fh:
        return [Span.from_dict(json.loads(line)) for line in fh]


# -- wrapper flavours ------------------------------------------------------
#
# Each takes (tracer, span name, original callable) and returns the
# replacement.  ``annotate(span, args, result)`` hooks record counts at
# the same boundary (bytes, IoRequests) so ratios are measured where
# the work happens.


def _sync(annotate: Optional[Callable] = None):
    def make(tracer: Tracer, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.start(name)
            tracer.push(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop()
                tracer.finish(span)
            if annotate is not None:
                annotate(span, args, result)
            return result

        return wrapper

    return make


def _until_done(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """The span ends when the returned future resolves."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.start(name)
        tracer.push(span)
        try:
            future = fn(*args, **kwargs)
        finally:
            tracer.pop()
        future.add_done_callback(lambda _f: tracer.finish(span))
        return future

    return wrapper


def _session_submit(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``Session.submit``: numbered in call order (the ordinal the
    client side joins on) and remembered by request identity so
    ``Engine.execute`` can find the submission it serves."""

    @functools.wraps(fn)
    def wrapper(session, request, *args, **kwargs):
        span = tracer.start(name, ordinal=next(tracer.submit_count))
        tracer.submitted[id(request)] = span

        def done(_future) -> None:
            tracer.finish(span)
            tracer.submitted.pop(id(request), None)

        try:
            future = fn(session, request, *args, **kwargs)
        except BaseException:
            done(None)
            raise
        future.add_done_callback(done)
        return future

    return wrapper


def _engine_execute(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``Engine.execute``: child of the submission it runs, or of every
    submission a coalesced batch carries (``served`` counts them)."""

    @functools.wraps(fn)
    def wrapper(engine, request, *args, **kwargs):
        served = [tracer.submitted.get(id(request))]
        if served[0] is None:
            served = [
                tracer.submitted[id(q)]
                for q in getattr(request, "queries", ())
                if id(q) in tracer.submitted
            ]
        span = tracer.start(name, parent=served[0] if served else None)
        span.attrs["served"] = len(served)
        for submission in served:
            submission.attrs["execute_t0"] = span.t0
        tracer.push(span)
        try:
            return fn(engine, request, *args, **kwargs)
        finally:
            tracer.pop()
            tracer.finish(span)

    return wrapper


def _search_batch(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(engine, queries, *args, **kwargs):
        span = tracer.start(name)
        span.attrs["queries"] = len(queries)
        tracer.push(span)
        tracer.open_batch = span
        try:
            return fn(engine, queries, *args, **kwargs)
        finally:
            tracer.open_batch = None
            tracer.pop()
            tracer.finish(span)

    return wrapper


def _thread_start(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Counts worker-thread starts on the open ``search_batch`` span."""

    @functools.wraps(fn)
    def wrapper(thread, *args, **kwargs):
        batch = tracer.open_batch
        if batch is not None and thread.name.startswith(WORKER_THREAD_PREFIX):
            batch.attrs["thread_starts"] = batch.attrs.get("thread_starts", 0) + 1
        return fn(thread, *args, **kwargs)

    return wrapper


def _frame_bytes(span: Span, args: Sequence, result) -> None:
    payload = result[1] if isinstance(result, tuple) else result
    span.attrs["bytes"] = FRAME_HEADER_BYTES + len(payload)


def _io_submitted(span: Span, args: Sequence, result) -> None:
    # ServeScheduler.simulate(self, traces, ciphertext_bytes): one
    # IoRequest per Hom-Add of every executed (query, shard) task
    span.attrs["io_requests"] = sum(trace.hom_adds for trace in args[1])


def _io_completed(span: Span, args: Sequence, result) -> None:
    span.attrs["events"] = len(result.requests)


class Target(NamedTuple):
    path: str  # "module:attr.path", resolved when the tracer is installed
    span: str
    make: Callable = _sync()
    #: part of repro.net: not installed for in-process workloads
    net: bool = False


TARGETS: List[Target] = [
    Target("repro.net.client:Client.submit", "net.client.submit", _until_done, net=True),
    Target("repro.net.codec:encode_request", "net.codec.encode_request",
           _sync(_frame_bytes), net=True),
    Target("repro.net.codec:decode_request", "net.codec.decode_request", net=True),
    Target("repro.net.codec:encode_result", "net.codec.encode_result",
           _sync(_frame_bytes), net=True),
    Target("repro.net.codec:decode_result", "net.codec.decode_result", net=True),
    # a BatchSearch answer travels as BATCH_RESULT; same metric
    Target("repro.net.codec:encode_batch_result", "net.codec.encode_result",
           _sync(_frame_bytes), net=True),
    Target("repro.net.codec:decode_batch_result", "net.codec.decode_result", net=True),
    Target("repro.api.session:Session.submit", "api.session.submit", _session_submit),
    Target("repro.api.engines:Engine.execute", "api.engine.execute", _engine_execute),
    Target("repro.serve.engine:ShardedSearchEngine.search_batch",
           "serve.engine.search_batch", _search_batch),
    Target("repro.serve.engine:ShardedSearchEngine.adopt_database",
           "serve.engine.adopt_database"),
    Target("threading:Thread.start", "serve.engine.thread_start", _thread_start),
    Target("repro.core.client:CipherMatchClient.prepare_query",
           "core.client.prepare_query"),
    Target("repro.core.client:CipherMatchClient.decode_flags_matrix",
           "core.client.decode_flags"),
    Target("repro.core.client:CipherMatchClient.outsource", "core.client.outsource"),
    Target("repro.core.query:QueryPreparer.encrypt_variant_value",
           "core.query.encrypt_variant"),
    Target("repro.serve.cache:VariantCipherCache.get_or_create",
           "serve.cache.get_or_create"),
    Target("repro.he.arena:CiphertextArena.phases", "he.arena.db_phases"),
    Target("repro.he.arena:QueryArena.phases", "he.arena.query_phases"),
    # the name repro.serve.engine bound at import, which is what it calls
    Target("repro.serve.engine:fused_decrypt_flags", "he.arena.decrypt_flags"),
    Target("repro.serve.scheduler:ServeScheduler.simulate",
           "serve.scheduler.simulate", _sync(_io_submitted)),
    Target("repro.serve.scheduler:ServeScheduler.per_query_latency",
           "serve.scheduler.per_query_latency"),
    Target("repro.ssd.queueing:SsdQueueingSimulator.run", "ssd.queueing.run",
           _sync(_io_completed)),
]


# -- analysis ----------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration minus the *union* of the child intervals: shard tasks
    run in parallel, so their sum can exceed the parent."""
    return span.duration - covered(
        ((c.t0, c.t1) for c in children), span.t0, span.t1
    )


def children_of(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    kids: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids
