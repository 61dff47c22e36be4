"""Serving-engine scaling: batch throughput vs shard count (1 -> 8).

One 12-query batch over a 16-polynomial database, served by a fresh
engine at each shard count.  The table carries two throughputs.  *Wall*
q/s is the software claim: shard tasks run one after another on the
calling thread, so it does not grow with the shard count.  *Modeled* q/s, speedup and p99 come from the
discrete-event queueing model of the executed task trace (each shard a
CM-IFP channel/die group) — the deployment claim, deterministic, and
read after the timed batch (``ServeReport`` replays the model on first
read, never while serving).

Match sets must be identical at every shard count, and the modeled
makespan must shrink at least 2x from 1 to 4 shards; both are asserted.
Runs standalone (``python benchmarks/bench_serving.py``) or under
pytest; ``--quick`` restricts the table to 1 and 4 shards.
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
NUM_POLYS = 16
NUM_QUERIES = 12


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


def _run_batch(params, db, queries, shards):
    """One fresh engine, one outsource, one timed batch."""
    with ShardedSearchEngine(
        ClientConfig(params, key_seed=9),
        num_shards=shards,
        cache_capacity=512,
    ) as engine:
        engine.outsource(db)
        t0 = time.perf_counter()
        report = engine.search_batch(queries)
        seconds = time.perf_counter() - t0
    return report, seconds


def run_scaling(quick: bool) -> int:
    params, db, queries = _workload()
    shard_counts = (1, 4) if quick else SHARD_COUNTS
    rows = []
    reports = {}
    for shards in shard_counts:
        report, secs = _run_batch(params, db, queries, shards)
        reports[shards] = report
        base = reports[shard_counts[0]]
        rows.append(
            [
                shards,
                f"{len(queries) / secs:.1f}",
                f"{report.modeled_throughput_qps:.1f}",
                f"{base.modeled_makespan / report.modeled_makespan:.2f}x",
                f"{report.modeled_latency_percentile(99) * 1e3:.1f}",
                f"{report.cache.hit_rate * 100:.0f}%",
            ]
        )

    emit(
        "serving_scaling",
        format_table(
            f"serving throughput vs shard count ({NUM_QUERIES}-query batch)",
            (
                "shards", "wall q/s", "modeled q/s", "modeled speedup",
                "p99 ms", "cache hit",
            ),
            rows,
            paper_note=(
                "Fig. 9/12 batch workload on sharded CM-IFP backends; "
                f"host has {os.cpu_count() or 1} CPU(s)"
            ),
        ),
    )

    baseline = reports[shard_counts[0]].matches_per_query()
    for shards, report in reports.items():
        assert report.matches_per_query() == baseline, (
            f"match divergence at shards={shards}"
        )

    # modeled-throughput acceptance: >= 2x at 4 shards vs 1
    speedup_at_4 = reports[1].modeled_makespan / reports[4].modeled_makespan
    assert speedup_at_4 >= 2.0, (
        f"4-shard modeled speedup only {speedup_at_4:.2f}x"
    )
    return 0


def test_emit_serving_scaling(benchmark):
    """Pytest entry point (same artifact, quick shape)."""
    benchmark(lambda: None)
    assert run_scaling(quick=True) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="1 and 4 shards only"
    )
    args = parser.parse_args()
    return run_scaling(quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())
