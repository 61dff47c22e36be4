"""Networked secure search: TCP service, client SDK, remote engine.

Boots the asyncio search service on a loopback socket around a 4-shard
``bfv-sharded`` engine, then exercises every client surface against it:

1. the sync :class:`repro.net.Client` (search, future-based submit,
   native batch, the STATS frame);
2. the same client from an event loop, awaiting its futures;
3. the ``"remote"`` engine through ``repro.open_session`` — the same
   facade call that runs in-process engines, now crossing real TCP.

Every result is cross-checked against the plaintext oracle; the script
exits non-zero on any mismatch (CI runs it as a smoke test).

Run:  PYTHONPATH=src python examples/network_serving.py
"""

import asyncio
import sys

import numpy as np

import repro
from repro.baselines import find_all_matches
from repro.he import BFVParams
from repro.net import Client, ServiceThread
from repro.utils.bits import random_bits


def main() -> int:
    rng = np.random.default_rng(42)
    params = BFVParams.test_small(64)
    db = random_bits(8 * 64 * 16, rng)
    queries = []
    for k in range(4):
        q = random_bits(32, rng)
        off = 16 * (7 + 31 * k)
        db[off : off + 32] = q
        queries.append(q)
    oracle = [find_all_matches(db, q) for q in queries]
    failures = 0

    def check(label: str, got, want) -> None:
        nonlocal failures
        ok = list(got) == list(want)
        failures += not ok
        print(f"  {label}: {list(got)} {'OK' if ok else f'!= oracle {want}'}")

    with ServiceThread(
        "bfv-sharded", params=params, num_shards=4, key_seed=42
    ) as service:
        host, port = service.address
        print(f"service up on {host}:{port} (4-shard bfv-sharded engine)\n")

        # -- sync client SDK --------------------------------------------
        print("sync Client: outsource + search / submit / batch")
        with Client(service.address, pool_size=2) as client:
            outsourced = client.outsource(db)
            print(f"  outsourced {outsourced} db bits over the wire")
            check("search", client.search(queries[0]).matches, oracle[0])
            futures = [client.submit(q) for q in queries]
            for k, future in enumerate(futures):
                check(f"submit[{k}]", future.result().matches, oracle[k])
            batch = client.search_batch(queries + queries[:2])
            check(
                "batch",
                [m for r in batch.results for m in r.matches],
                [m for ms in oracle + oracle[:2] for m in ms],
            )
            stats = client.stats()
            print(
                f"  service stats: {stats.completed} completed, "
                f"{stats.shed} shed, batch p50 {stats.wall_p50 * 1e3:.2f} ms, "
                f"{stats.throughput_qps:.1f} q/s"
            )

        # -- the same client on an event loop ---------------------------
        print("\nClient futures awaited on an event loop")

        async def async_lane():
            with Client(service.address) as client:
                futures = [client.submit(q) for q in queries]
                return await asyncio.gather(
                    *(asyncio.wrap_future(f) for f in futures)
                )

        for k, result in enumerate(asyncio.run(async_lane())):
            check(f"async[{k}]", result.matches, oracle[k])

        # -- the facade, one word away ----------------------------------
        print('\nrepro.open_session("remote", address=...): same facade')
        with repro.open_session(
            "remote", address=service.address
        ) as session:
            result = session.search(queries[0])
            check("session.search", result.matches, oracle[0])
            print(
                f"  engine={result.engine!r} scheme={result.scheme!r} "
                f"{result.hom_ops.additions} Hom-Adds, "
                f"{len(result.shards)} shards"
            )

    print(f"\nnetworked serving demo: {'OK' if not failures else 'FAIL'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
