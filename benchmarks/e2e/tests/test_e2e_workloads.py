"""Generators: determinism, planted keys, and the oracle behind them."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import workloads
from repro.baselines import find_all_matches

E2E = pathlib.Path(__file__).resolve().parents[1]
SRC = E2E.parents[1] / "src"


def _digest_in_child(name: str, seed: int, hash_seed: str) -> str:
    code = (
        "import workloads; "
        f"print(workloads.digest(workloads.generate({name!r}, {seed})))"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(E2E), str(SRC)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_across_processes(name):
    here = workloads.digest(workloads.generate(name, 7))
    assert _digest_in_child(name, 7, "1") == here
    assert _digest_in_child(name, 7, "2") == here
    assert workloads.digest(workloads.generate(name, 8)) != here


def test_haystack_agrees_with_the_repo_oracle_on_whole_databases():
    rng = np.random.default_rng(5)
    for width in (8, 32, 48):
        db = rng.integers(0, 2, 20_000, dtype=np.uint8)
        key = rng.integers(0, 2, width, dtype=np.uint8)
        for offset in (0, 3, 1601, len(db) - width):  # any bit phase, both ends
            db[offset : offset + width] = key
        hay = workloads.Haystack(db)
        assert list(hay.find_all(key)) == find_all_matches(db, key)
        other = rng.integers(0, 2, width, dtype=np.uint8)
        assert list(hay.find_all(other)) == find_all_matches(db, other)


def test_haystack_ignores_the_zero_padding_past_the_end():
    db = np.ones(13, dtype=np.uint8)
    db[-3:] = 0  # the padded last byte could fake "11100000"
    key = np.array([1, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8)
    assert workloads.Haystack(db).find_all(key) == ()
    assert find_all_matches(db, key) == []


def test_lookup_keys_are_planted_on_chunk_boundaries_and_expected():
    inputs = workloads.generate("lookup-tcp-closed", 11)
    spec = inputs.spec
    assert len(inputs.ops) == spec.count and len(inputs.warmup) == spec.warmup
    hits = [op for op in inputs.ops if op.expected[0]]
    assert 0.3 < len(hits) / len(inputs.ops) < 0.7  # half planted, half misses
    for op in hits[:20]:
        aligned = [o for o in op.expected[0] if o % workloads.CHUNK_BITS == 0]
        assert aligned, "a planted key sits on a 16-bit boundary"
        at = aligned[0]
        assert np.array_equal(inputs.dbs[0][at : at + spec.key_bits], op.keys[0])


def test_open_loop_offers_a_prefix_of_the_closed_loop_on_a_poisson_schedule():
    closed = workloads.generate("lookup-tcp-closed", 11)
    opened = workloads.generate("lookup-tcp-open", 11)
    assert np.array_equal(closed.dbs[0], opened.dbs[0])
    for a, b in zip(opened.ops, closed.ops):
        assert np.array_equal(a.keys[0], b.keys[0]) and a.expected == b.expected
    spec = opened.spec
    due = workloads.schedule(opened, 0, None)
    # conditioned on its count: exactly rate x horizon arrivals, in order
    assert len(due) == spec.count and due == sorted(due)
    assert 0 <= due[0] and due[-1] < spec.count / spec.rate
    assert due == workloads.schedule(opened, 0, None)
    assert due != workloads.schedule(opened, 1, None)  # each repeat its own
    short = workloads.schedule(opened, 0, 5.0)
    assert len(short) == round(spec.rate * 5.0) and short[-1] < 5.0
    # Poisson gaps: exponential, so their spread is about their mean
    gaps = np.diff(due)
    assert 0.7 < gaps.std() / gaps.mean() < 1.3


def test_scan_reads_are_distinct_and_half_come_from_the_reference():
    inputs = workloads.generate("scan-inproc-closed", 11)
    reads = [op.keys[0].tobytes() for op in inputs.warmup + inputs.ops]
    assert len(set(reads)) == len(reads) == inputs.spec.warmup + inputs.spec.count
    found = sum(bool(op.expected[0]) for op in inputs.ops)
    assert found >= len(inputs.ops) // 2 - 1


def test_churn_cycles_outsource_then_search_cold_then_batch_from_the_hot_set():
    inputs = workloads.generate("hotset-churn-tcp", 11)
    kinds = [op.kind for op in inputs.ops]
    cycle = ["outsource", "first"] + ["batch"] * workloads.CHURN_BATCHES
    assert kinds == cycle * inputs.spec.count
    assert len({op.db for op in inputs.ops if op.kind == "outsource"}) == inputs.spec.count
    batches = [op for op in inputs.ops if op.kind == "batch"]
    assert all(len(op.keys) == workloads.CHURN_BATCH_KEYS for op in batches)
    assert all(hit for op in batches for hit in op.expected), "hot keys are planted"
    # one duplicate in every batch: dedup always fires, one latency mode
    assert {len({k.tobytes() for k in op.keys}) for op in batches} == {
        workloads.CHURN_BATCH_DISTINCT
    }
