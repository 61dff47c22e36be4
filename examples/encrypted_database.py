"""Case study 2: encrypted database (key-value) search (paper §5.3).

A client outsources an encrypted key-value store and issues a batch of
key lookups; the server answers them with Hom-Add-only searches and,
in SERVER_DETERMINISTIC mode, generates the match indices itself —
the in-SSD index-generation flow of Figure 6.

Run:  python examples/encrypted_database.py
"""

from repro.core import ClientConfig, IndexMode
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.workloads import DatabaseWorkloadGenerator


def main() -> None:
    gen = DatabaseWorkloadGenerator(seed=21)
    db = gen.generate(num_records=24, key_bytes=8, value_bytes=24)
    mix = gen.query_mix(db, num_queries=12, hit_fraction=0.5)
    print(
        f"key-value store: {len(db.records)} records x {db.record_bytes} B "
        f"({db.record_bits} bits/record); query batch: {len(mix.keys)} keys, "
        f"{mix.num_hits} expected hits"
    )

    engine = ShardedSearchEngine(
        ClientConfig(
            BFVParams.test_small(64),
            key_seed=31,
            index_mode=IndexMode.SERVER_DETERMINISTIC,
        )
    )
    enc = engine.outsource(db.flatten_bits())
    print(
        f"encrypted store: {enc.num_polynomials} ciphertexts, server-side "
        f"index generation armed (deterministic masking)"
    )

    hits = misses = 0
    for key, expected_idx in zip(mix.keys, mix.expected_record_indices):
        report = engine.search(db.key_bits(key))
        record_hits = [
            off // db.record_bits
            for off in report.matches
            if off % db.record_bits == 0
        ]
        if expected_idx is not None:
            assert expected_idx in record_hits, key
            value = db.records[expected_idx].value.strip()
            print(f"  lookup {key!r}: HIT  -> record {expected_idx} ({value})")
            hits += 1
        else:
            assert expected_idx not in record_hits
            print(f"  lookup {key!r}: MISS")
            misses += 1
    print(f"batch done: {hits} hits / {misses} misses, all verified.")


if __name__ == "__main__":
    main()
