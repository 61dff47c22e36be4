"""Hot-key pipelined traffic on one connection: the shape the fair
queue's slot bound decides.

One client pipelines 48 exact searches over 4 hot keys on a single
connection of a loopback :class:`repro.net.ServiceThread` (2-shard
``bfv-sharded`` at ``BFVParams.paper()``, a 64-polynomial database) and
waits for all of them.  How many of the 48 sit in the session queue
together is how many ``Session.submit`` can coalesce into one native
batch, whose in-batch dedup then runs 4 searches instead of 48 — so a
front end that hands the session at most a few requests at a time loses
most of the batch.  None of the ``benchmarks/e2e`` workloads has this
shape (their clients wait for each reply, or arrive at 8 req/s), which
is why it is measured here: ``docs/perf.md`` "Removed variants" and
``BENCH_20.json`` carry the figures.

Prints one JSON line: queries/sec of every rep, their median and
quartiles.  Every answer is checked against the planted offsets.
Standalone only (``python benchmarks/bench_pipelined.py``); it gates
nothing.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from repro.eval.tables import percentile
from repro.he import BFVParams
from repro.net import Client, ServiceThread
from repro.utils.bits import random_bits

PIPELINED = 48
HOT_KEYS = 4
KEY_BITS = 32
DB_POLYS = 64


def run(reps: int, warmup: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = BFVParams.paper()
    db = random_bits(DB_POLYS * params.n * 16, rng)
    keys, offsets = [], []
    for k in range(HOT_KEYS):
        key = random_bits(KEY_BITS, rng)
        offset = 16 * (1000 + 4001 * k)
        db[offset : offset + KEY_BITS] = key
        keys.append(key)
        offsets.append(offset)
    order = [k % HOT_KEYS for k in range(PIPELINED)]

    qps = []
    with ServiceThread(
        "bfv-sharded", params=params, num_shards=2, key_seed=seed
    ) as service:
        with Client(service.address, pool_size=1) as client:
            client.outsource(db)
            for rep in range(warmup + reps):
                start = time.perf_counter()
                futures = [client.submit(keys[k]) for k in order]
                results = [future.result(timeout=120) for future in futures]
                elapsed = time.perf_counter() - start
                for k, result in zip(order, results):
                    assert offsets[k] in result.matches, (rep, k)
                if rep >= warmup:
                    qps.append(PIPELINED / elapsed)
    return {
        "bench": "pipelined-hotkeys",
        "pipelined": PIPELINED,
        "hot_keys": HOT_KEYS,
        "reps": reps,
        "qps": [round(x, 1) for x in qps],
        "qps_p25": round(percentile(qps, 25), 1),
        "qps_median": round(percentile(qps, 50), 1),
        "qps_p75": round(percentile(qps, 75), 1),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--reps", type=int, default=12)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args()
    print(json.dumps(run(args.reps, args.warmup, args.seed)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
