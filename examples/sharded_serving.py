"""Sharded query serving — the production-scale layer, driven through
the unified API.

The encrypted database is split across four shards, each with its own
addition backend, and the engine executes a deduplicated query batch
shard task by shard task.  Results are merged with global offsets
(one planted occurrence deliberately straddles a shard boundary) and
cross-checked against the plaintext oracle — which is just another
registered engine behind the same facade.

Run:  python examples/sharded_serving.py
"""

import numpy as np

import repro
from repro.api import BatchSearch
from repro.he import BFVParams
from repro.utils.bits import random_bits

PARAMS = BFVParams.test_small(64)
BITS_PER_POLY = PARAMS.n * 16


def main() -> None:
    rng = np.random.default_rng(21)
    db = random_bits(8 * BITS_PER_POLY, rng)

    queries = []
    for k in range(4):
        q = random_bits(32, rng)
        off = 16 * (13 + 97 * k)
        db[off : off + 32] = q
        queries.append(q)
    # an occurrence straddling the shard-1/shard-2 boundary
    boundary = 4 * BITS_PER_POLY
    straddle = random_bits(32, rng)
    db[boundary - 16 : boundary + 16] = straddle
    queries.append(straddle)
    queries += queries[:2]  # repeated keys exercise deduplication

    print("=== sharded concurrent serving (4 shards) ===")
    with repro.open_session(
        "bfv-sharded",
        params=PARAMS,
        num_shards=4,
        key_seed=22,
        cache_capacity=128,
        db_bits=db,
    ) as session:
        batch = session.search(BatchSearch.from_bit_arrays(queries))
        serve_report = session.engine.last_serve_report
        print(serve_report.summary_table())
        print()
        print(serve_report.shard_table())

    print("\n=== cross-checks ===")
    with repro.open_session("plaintext", db_bits=db) as oracle:
        for q, result in zip(queries, batch.results):
            assert list(result.matches) == list(oracle.search(q).matches)
    print("sharded engine == plaintext oracle for "
          f"{batch.num_queries} queries ({batch.deduplicated_hits} deduplicated)")
    straddle_offsets = list(batch.results[4].matches)
    print(f"boundary-straddling occurrence found at bit offset {straddle_offsets}")


if __name__ == "__main__":
    main()
