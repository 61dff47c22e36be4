"""Wrap-by-name tracing: parents, futures, missing targets."""

import sys
import threading
import types
from concurrent.futures import Future

import pytest

import tracing
from tracing import Target, Tracer


@pytest.fixture
def toy(monkeypatch):
    """A throwaway module to wrap, so no test patches the real program."""
    module = types.ModuleType("toy_layer")

    class Engine:
        def outer(self, n):
            return self.inner(n) + self.inner(n)

        def inner(self, n):
            return n + 1

        @staticmethod
        def helper(x):
            return x * 2

        def submit(self, request):
            future = Future()
            self.pending = future
            return future

    module.Engine = Engine
    module.free_function = lambda payload: (1, b"x" * payload)
    monkeypatch.setitem(sys.modules, "toy_layer", module)
    return module


def test_a_missing_target_is_skipped_counted_and_never_a_crash(toy):
    tracer = Tracer("t")
    tracer.install([
        Target("toy_layer:Engine.outer", "outer"),
        Target("toy_layer:Engine.renamed_away", "gone"),
        Target("toy_layer:NoSuchClass.method", "gone"),
        Target("no_such_module_anywhere:thing", "gone"),
    ])
    assert tracer.missing == [
        "toy_layer:Engine.renamed_away",
        "toy_layer:NoSuchClass.method",
        "no_such_module_anywhere:thing",
    ]
    assert toy.Engine().outer(1) == 4
    assert [s.name for s in tracer.spans] == ["outer"]
    tracer.uninstall()
    toy.Engine().outer(1)
    assert len(tracer.spans) == 1  # the original is back


def test_nested_calls_parent_on_the_calling_thread_and_static_stays_static(toy):
    tracer = Tracer("t")
    tracer.install([
        Target("toy_layer:Engine.outer", "outer"),
        Target("toy_layer:Engine.inner", "inner"),
        Target("toy_layer:Engine.helper", "helper"),
        Target("toy_layer:free_function", "encode", tracing._sync(tracing._frame_bytes)),
    ])
    engine = toy.Engine()
    engine.outer(1)
    assert engine.helper(4) == 8 and toy.Engine.helper(4) == 8
    toy.free_function(10)
    tracer.uninstall()
    outer, first, second, *rest = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert first.parent == second.parent == outer.id
    assert outer.t0 <= first.t0 <= first.t1 <= second.t0 <= second.t1 <= outer.t1
    assert [s.name for s in rest] == ["helper", "helper", "encode"]
    assert rest[-1].attrs["bytes"] == tracing.FRAME_HEADER_BYTES + 10


def test_a_future_span_ends_when_the_future_resolves(toy):
    tracer = Tracer("t")
    tracer.install([Target("toy_layer:Engine.submit", "submit", tracing._until_done)])
    engine = toy.Engine()
    future = engine.submit("request")
    span = tracer.spans[0]
    assert span.t1 == span.t0  # still open
    future.set_result(None)
    assert span.t1 > span.t0
    tracer.uninstall()


def test_worker_threads_attach_to_the_open_search_batch(toy):
    tracer = Tracer("t")
    tracer.install([Target("toy_layer:Engine.inner", "task")])
    batch = tracer.start("serve.engine.search_batch")
    tracer.open_batch = batch
    engine = toy.Engine()
    worker = threading.Thread(target=engine.inner, args=(1,), name="serve-worker-0")
    other = threading.Thread(target=engine.inner, args=(1,), name="asyncio-loop")
    for thread in (worker, other):
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
    tracer.uninstall()
    by_thread = {s.thread: s for s in tracer.spans if s.name == "task"}
    assert by_thread["serve-worker-0"].parent == batch.id
    assert by_thread["asyncio-loop"].parent is None


def test_every_real_target_resolves_at_this_commit():
    missing = []
    for target in tracing.TARGETS:
        try:
            tracing._resolve(target.path)
        except (ImportError, AttributeError):
            missing.append(target.path)
    assert missing == []


def test_spans_round_trip_through_jsonl(tmp_path):
    tracer = Tracer("s")
    span = tracer.start("x", ordinal=3)
    span.attrs["bytes"] = 5
    tracer.finish(span)
    tracing.dump_spans(tracer.spans, tmp_path / "spans.jsonl")
    (back,) = tracing.load_spans(tmp_path / "spans.jsonl")
    assert back.to_dict() == span.to_dict()
