"""Percentile rule, self time, process join, compare verdicts, manifest."""

import json
import pathlib

import compare
import metrics
import workloads
from tracing import Span, self_time

ROOT = pathlib.Path(__file__).resolve().parents[3]


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert metrics.highest_percentile(19) is None  # p50 leaves 9.5 beyond
    assert metrics.highest_percentile(20) == 50
    assert metrics.highest_percentile(99) == 50
    assert metrics.highest_percentile(100) == 90
    assert metrics.highest_percentile(900) == 95  # 9 beyond p99: not enough
    assert metrics.highest_percentile(1000) == 99
    assert metrics.highest_percentile(10_000) == 99.9


def _span(id, name, t0, t1, parent=None, ordinal=None, **attrs):
    span = Span(id, name, t0, "t", ordinal, parent)
    span.t1 = t1
    span.attrs = attrs
    return span


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = _span("p", "search_batch", 0.0, 10.0)
    shard_a = _span("a", "task", 1.0, 6.0, "p")
    shard_b = _span("b", "task", 4.0, 8.0, "p")  # overlaps a on [4, 6]
    assert self_time(parent, [shard_a, shard_b]) == 10.0 - 7.0
    assert self_time(parent, [shard_b, shard_a]) == 3.0  # order-free
    nested = _span("c", "task", 2.0, 3.0, "p")  # inside a: adds nothing
    assert self_time(parent, [shard_a, shard_b, nested]) == 3.0
    spills = _span("d", "late", 9.0, 12.0, "p")  # clipped to the parent
    assert self_time(parent, [spills]) == 9.0
    assert self_time(parent, []) == 10.0


def test_layer_metrics_join_client_and_server_by_ordinal():
    spans = [
        _span("c1", "load.request", 0.0, 0.100, ordinal=1, measured=1, queries=1),
        _span("c2", "net.client.submit", 0.001, 0.099, "c1", 1),
        _span("c3", "net.codec.encode_request", 0.001, 0.002, "c2", 1, bytes=36),
        _span("s1", "api.session.submit", 0.010, 0.090, None, 1, execute_t0=0.015),
        _span("s2", "api.engine.execute", 0.015, 0.089, "s1", 1, served=1),
        _span("s3", "serve.scheduler.simulate", 0.050, 0.080, "s2", 1, io_requests=1088),
        _span("s4", "ssd.queueing.run", 0.055, 0.078, "s3", 1, events=1088),
        # parentless server span inside exactly one client submit: adopted
        _span("s5", "net.codec.decode_request", 0.008, 0.009),
        # an outsource happens outside any request: stays an orphan
        _span("s6", "core.client.outsource", 0.2, 0.3),
    ]
    values, waterfall = metrics.layer_metrics_from_spans(spans, (0.0, 0.1), ["x:y"])
    assert spans[3].parent == "c2" and spans[7].parent == "c2"
    assert spans[8].parent is None
    assert round(values["net.overhead_ms_p50"], 6) == 18.0  # 98 - 80
    assert round(values["api.session.queue_wait_ms_p50"], 6) == 5.0
    assert values["api.session.requests_per_execute"] == 1.0
    assert round(values["serve.scheduler.simulate_ms"], 6) == 30.0
    assert values["serve.scheduler.io_requests_per_query"] == 1088
    assert values["ssd.queueing.events"] == 1088
    assert round(values["core.client.outsource_ms"], 6) == 100.0
    assert values["net.request_bytes"] == 36
    assert values["trace.targets_missing"] == 1
    # root self 2 ms + client submit self (98 - 1 - 80 - 1) ms, of 100 ms
    assert round(values["trace.unattributed_share"], 6) == 0.18
    assert waterfall.requests == 1
    assert "ssd.queueing.run" in waterfall.render("w")


def _row(value, repeats):
    return {"value": value, **metrics.summarize(repeats)}


def test_compare_verdicts():
    qps = next(m for m in metrics.END_TO_END if m.name == "qps")
    b = qps.bound
    steady = _row(100.0, [99.0, 100.0, 101.0])
    assert compare.verdict(qps, steady, _row(100.5, [100, 100.5, 101])) == "within"
    slower = 100 * (1 - 2 * b)
    assert compare.verdict(qps, steady, _row(slower, [slower - 1, slower, slower + 1])) == "worse"
    faster = 100 * (1 + 2 * b)
    assert compare.verdict(qps, steady, _row(faster, [faster - 1, faster, faster + 1])) == "better"
    # repeats spread wider than the bound and overlapping: cannot tell
    wide = 100 * b
    noisy = _row(100 - wide, [100 - 2 * wide, 100 - wide, 100 + wide])
    assert compare.verdict(qps, steady, noisy) == "unresolved"
    # ... unless every repeat of one side beats every repeat of the other
    clear = _row(50.0, [30.0, 50.0, 70.0])
    assert compare.verdict(qps, steady, clear) == "worse"
    fail = next(m for m in metrics.END_TO_END if m.name == "fail_share")
    assert compare.verdict(fail, _row(0.0, [0, 0, 0]), _row(0.0, [0, 0, 0])) == "within"
    assert compare.verdict(fail, _row(0.0, [0, 0, 0]), _row(0.01, [0, 0.01, 0.02])) == "worse"


def test_manifest_lists_the_same_workloads_and_metrics_as_the_code():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (s.name, s.why) for s in workloads.WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    by_name = {m.name: m for m in metrics.END_TO_END}
    demoted = [by_name[name] for name in metrics.MANIFEST_DEMOTES]
    bounded = [
        m for m in metrics.END_TO_END
        if m not in demoted and m.name not in metrics.MANIFEST_OMITS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in bounded]
    assert all(m.only is None for m in bounded), "a bounded metric applies everywhere"
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics.PER_LAYER + demoted
    ]
