"""Quickstart: secure exact string matching through the unified API.

One ``repro.open_session`` call owns key generation, database packing +
encryption, and outsourcing; the session then answers typed search
requests.  Swap the engine key ("bfv-sharded" -> "bfv-wire" -> "yasuda"
-> "plaintext") to run the identical workload on any registered matcher.

Run:  python examples/quickstart.py
"""

import re

import repro
from repro.api import ExactSearch
from repro.he import BFVParams
from repro.utils.bits import text_to_bits


def main() -> None:
    # Small ring for a snappy demo; swap in BFVParams.paper() for the
    # paper's n=1024 set.
    params = BFVParams.test_small(64)
    print(f"BFV parameters: {params.name} (n={params.n}, log q={params.log_q}, "
          f"log t={params.plaintext_bits_per_coeff})")

    # The database: some text the client owns.
    text = (
        "the quick brown fox jumps over the lazy dog -- "
        "pack sixteen bits per coefficient and add away! "
    ) * 4
    db_bits = text_to_bits(text)
    print(f"database: {len(text)} chars = {len(db_bits)} bits")

    with repro.open_session(
        "bfv-sharded", params=params, key_seed=2024, db_bits=db_bits
    ) as session:
        print(
            f"engine {session.engine_key!r} "
            f"(scheme {session.capabilities.scheme}), database outsourced: "
            f"{session.db_bit_length} encrypted bits"
        )

        # Search for words.  ASCII occurrences sit at byte offsets, i.e.
        # bit phases 0/8 — well inside the detectable range for a
        # 4-byte+ pattern.
        for needle in ("fox", "lazy dog", "sixteen bits", "not present"):
            result = session.search(ExactSearch.from_text(needle))
            positions = [off // 8 for off in result.matches]
            print(
                f"search {needle!r:18s} -> {result.num_matches} match(es) at "
                f"char offsets {positions[:6]}"
                f"{'...' if len(positions) > 6 else ''} "
                f"[{result.hom_ops.additions} Hom-Adds, "
                f"{result.hom_ops.multiplications} Hom-Mults, "
                f"{result.elapsed_seconds * 1e3:.0f} ms]"
            )

        # Verify against plain Python as a sanity check.
        secure = [
            off // 8 for off in session.search(ExactSearch.from_text("fox")).matches
        ]
        assert [m.start() for m in re.finditer("fox", text)] == secure
        print("verified against plaintext search.")


if __name__ == "__main__":
    main()
