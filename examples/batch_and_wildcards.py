"""Batched queries and wildcard patterns through the unified API.

* ``Session.submit_batch`` queues the Figure-9/12-style query batches
  asynchronously: futures resolve in submission order while the sharded
  serve layer deduplicates and caches variant ciphertexts underneath.
* A ``WildcardSearch`` request matches patterns with don't-care bytes
  using only Hom-Add sweeps (one per literal segment) — the join is
  shared by every wildcard-capable engine.

Run:  python examples/batch_and_wildcards.py
"""

import re

import repro
from repro.api import BatchSearch, WildcardSearch
from repro.he import BFVParams
from repro.utils.bits import text_to_bits
from repro.workloads import DatabaseWorkloadGenerator

PARAMS = BFVParams.test_small(64)


def batched_lookups() -> None:
    print("=== batched key lookups (case study 2 at batch scale) ===")
    gen = DatabaseWorkloadGenerator(seed=77)
    db = gen.generate(num_records=16, key_bytes=8, value_bytes=8)
    mix = gen.query_mix(db, num_queries=30, hit_fraction=0.7)

    with repro.open_session(
        "bfv-sharded",
        params=PARAMS,
        num_shards=2,
        key_seed=78,
        db_bits=db.flatten_bits(),
    ) as session:
        # One typed request for the whole batch -> native execution by
        # the serving engine, duplicates deduplicated.
        report = session.search(
            BatchSearch.from_bit_arrays([db.key_bits(k) for k in mix.keys])
        )
        print(
            f"{report.num_queries} queries ({len(set(mix.keys))} distinct, "
            f"{report.deduplicated_hits} deduplicated in the serve layer)"
        )
        hits = sum(1 for r in report.results if r.num_matches)
        print(
            f"total Hom-Adds: {report.total_hom_ops}; queries with hits: "
            f"{hits}/{report.num_queries}"
        )

        # The same batch, submitted asynchronously: one future per query,
        # resolving in submission order.
        futures = session.submit_batch([db.key_bits(k) for k in mix.keys[:5]])
        print("async resubmission of the first 5 keys:")
        for key, future in zip(mix.keys[:5], futures):
            result = future.result()
            print(f"  key {key!r}: {result.num_matches} match(es)")


def wildcard_search() -> None:
    print("\n=== wildcard pattern search ===")
    text = (
        "log: user alice logged in; user bob logged in; "
        "user carol logged out; user dave logged in; "
    )
    with repro.open_session(
        "bfv-sharded", params=PARAMS, key_seed=79, db_bits=text_to_bits(text)
    ) as session:
        pattern = WildcardSearch.from_text("logged ??")
        result = session.search(pattern)
        print(
            f"pattern 'logged ??': {pattern.literal_bits} literal bits, "
            f"{pattern.num_bits - pattern.literal_bits} wildcard bits, "
            f"{result.hom_ops.additions} Hom-Adds executed"
        )
        for off in result.matches:
            char = off // 8
            print(f"  match at char {char:3d}: ...{text[char:char+12]!r}...")

        expected = [8 * m.start() for m in re.finditer(r"logged ..", text)]
        assert list(result.matches) == expected
        print("verified against regex.")


if __name__ == "__main__":
    batched_lookups()
    wildcard_search()
