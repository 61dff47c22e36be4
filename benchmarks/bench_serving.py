"""Serving-engine scaling: batch throughput vs shard count (1 -> 8)
across both shard executors.

The scaling table carries an **executor** column: ``thread`` runs
the shards on a pool of worker threads inside one interpreter (wall
throughput GIL-bound on the functional simulator), ``process`` runs
each shard in a spawn-pinned worker process holding a zero-copy
shared-memory view of the encrypted database (``CiphertextArena
.share()``), so Hom-Add/decrypt work escapes the GIL entirely.  The
discrete-event queueing model of the executed task trace (each shard a
CM-IFP channel/die group) is the deployment claim either way; the
executor column is the *software* wall-clock claim.

Match sets must be byte-identical across every (shards, executor) cell
— asserted unconditionally.  The wall-clock speedup gate is
core-count-aware: process workers cannot beat threads on a single-CPU
host, so the required ratio is 1.5x with >= 4 CPUs, 1.05x with >= 2,
and waived (with a printed note) on 1 CPU.  Runs standalone
(``python benchmarks/bench_serving.py``) or under pytest; ``--quick``
restricts to the 4-shard gate cell for the CI bench-smoke lane.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from _util import emit

from repro.core import ClientConfig
from repro.eval.tables import format_table
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.utils.bits import random_bits

SHARD_COUNTS = (1, 2, 4, 8)
EXECUTORS = ("thread", "process")
NUM_POLYS = 16
NUM_QUERIES = 12

#: 4-shard wall-clock gate: required process/thread q/s ratio by host
#: core count.  A single-CPU host cannot show a parallel speedup, so
#: the ratio gate is waived there (correctness parity never is).
GATE_SHARDS = 4


def _required_ratio(cpus: int):
    if cpus >= 4:
        return 1.5
    if cpus >= 2:
        return 1.05
    return None


def _workload():
    rng = np.random.default_rng(9)
    params = BFVParams.test_small(64)
    bits_per_poly = params.n * 16
    db = random_bits(NUM_POLYS * bits_per_poly, rng)
    queries = []
    for k in range(NUM_QUERIES):
        q = random_bits(32, rng)
        off = 16 * (11 + 61 * k)
        db[off : off + 32] = q
        queries.append(q)
    return params, db, queries


def _run_batch(params, db, queries, shards, executor):
    """One fresh engine, one outsource, one timed batch.

    Worker processes warm-start at outsourcing time, so the timed batch
    measures steady-state serving, not spawn cost.
    """
    engine = ShardedSearchEngine(
        ClientConfig(params, key_seed=9),
        num_shards=shards,
        cache_capacity=512,
        executor=executor,
    )
    try:
        engine.outsource(db)
        t0 = time.perf_counter()
        report = engine.search_batch(queries)
        seconds = time.perf_counter() - t0
    finally:
        engine.close()
    return report, seconds


def run_scaling(quick: bool) -> int:
    params, db, queries = _workload()
    cpus = os.cpu_count() or 1
    shard_counts = (1, GATE_SHARDS) if quick else SHARD_COUNTS
    rows = []
    reports = {}
    seconds = {}
    for shards in shard_counts:
        for executor in EXECUTORS:
            report, secs = _run_batch(params, db, queries, shards, executor)
            reports[shards, executor] = report
            seconds[shards, executor] = secs
            base = reports[shard_counts[0], executor]
            rows.append(
                [
                    shards,
                    executor,
                    f"{len(queries) / secs:.1f}",
                    f"{report.modeled_throughput_qps:.1f}",
                    f"{base.modeled_makespan / report.modeled_makespan:.2f}x",
                    f"{report.modeled_latency_percentile(99) * 1e3:.1f}",
                    f"{report.cache.hit_rate * 100:.0f}%",
                    report.worker_restarts,
                ]
            )

    emit(
        "serving_scaling",
        format_table(
            "serving throughput vs shard count and executor "
            f"({NUM_QUERIES}-query batch)",
            (
                "shards", "executor", "wall q/s", "modeled q/s",
                "modeled speedup", "p99 ms", "cache hit", "restarts",
            ),
            rows,
            paper_note=(
                "Fig. 9/12 batch workload on sharded CM-IFP backends; "
                "process executor = spawn workers over a shared-memory "
                f"arena; host has {cpus} CPU(s)"
            ),
        ),
    )

    # every (shards, executor) cell must produce identical match sets
    baseline = reports[shard_counts[0], "thread"].matches_per_query()
    for key, report in reports.items():
        assert report.matches_per_query() == baseline, (
            f"match divergence at shards={key[0]} executor={key[1]}"
        )

    if not quick:
        # modeled-throughput acceptance: >= 2x at 4 shards vs 1
        speedup_at_4 = (
            reports[1, "thread"].modeled_makespan
            / reports[4, "thread"].modeled_makespan
        )
        assert speedup_at_4 >= 2.0, (
            f"4-shard modeled speedup only {speedup_at_4:.2f}x"
        )

    # executor wall-clock gate at 4 shards (core-count-aware)
    ratio = (
        seconds[GATE_SHARDS, "thread"] / seconds[GATE_SHARDS, "process"]
    )
    required = _required_ratio(cpus)
    print(
        f"{GATE_SHARDS}-shard wall q/s — thread: "
        f"{len(queries) / seconds[GATE_SHARDS, 'thread']:.1f}, process: "
        f"{len(queries) / seconds[GATE_SHARDS, 'process']:.1f} "
        f"(process/thread ratio {ratio:.2f}x on {cpus} CPU(s))"
    )
    if required is None:
        print(
            "speedup gate WAIVED: single-CPU host cannot exhibit "
            "process-parallel speedup; match parity still enforced"
        )
    elif ratio < required:
        print(
            f"FAIL: process executor only {ratio:.2f}x thread at "
            f"{GATE_SHARDS} shards (need >= {required:.2f}x on "
            f"{cpus} CPUs)",
            file=sys.stderr,
        )
        return 1
    return 0


def test_emit_serving_scaling(benchmark):
    """Pytest entry point (same artifact, quick shape)."""
    benchmark(lambda: None)
    assert run_scaling(quick=True) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="4-shard gate cell only; non-zero exit if the process "
        "executor misses the core-count-aware speedup ratio (CI gate)",
    )
    args = parser.parse_args()
    return run_scaling(quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())
