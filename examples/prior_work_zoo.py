#!/usr/bin/env python3
"""Table 1, functionally: all five prior approaches plus CIPHERMATCH on
one small input, with per-approach operation counts.

Every matcher searches the same bit pattern; the printout shows the
qualitative trade-offs of Table 1 as *measured* quantities — gate
counts, Hom-Mult counts, ciphertext bytes, and query-size restrictions.
Each row is checked against the plaintext oracle of the input it
searched, and the script exits nonzero when any row differs.

Run:  python examples/prior_work_zoo.py
"""

import sys

import numpy as np

from repro.baselines import (
    BonteMatcher,
    KimHomEQMatcher,
    TfheBooleanMatcher,
    YasudaMatcher,
    find_all_matches,
)
from repro.core import ClientConfig
from repro.he import BFVParams
from repro.he.keys import generate_keys
from repro.serve import ShardedSearchEngine
from repro.tfhe import TFHEParams


def main() -> int:
    rng = np.random.default_rng(11)
    db_bits = rng.integers(0, 2, 24).astype(np.uint8)
    query = np.array([1, 0, 1], dtype=np.uint8)
    db_bits[8:11] = query  # ensure at least one planted match
    expected = find_all_matches(db_bits, query)
    print(f"database: {''.join(map(str, db_bits))}")
    print(f"query   : {''.join(map(str, query))}  -> oracle matches {expected}\n")
    rows = []

    # [33]/[17] Boolean approach: per-bit gates on real bootstrapped TFHE.
    tfhe = TfheBooleanMatcher(TFHEParams.test_small(), seed=2)
    tfhe_db = tfhe.encrypt_database(db_bits)
    matches = tfhe.search(tfhe_db, query)
    rows.append(("Pradel/Aziz [33,17] (real TFHE)", matches, expected,
                 f"{tfhe.ctx.total_gates()} gates / "
                 f"{tfhe.ctx.bootstrap_count} bootstraps, "
                 f"{tfhe_db.serialized_bytes:,} ct bytes"))

    # [27] Yasuda et al.: Hamming distance with Hom-Mult.
    yasuda = YasudaMatcher(seed=2)
    y_sk, y_pk, y_rlk = generate_keys(yasuda.params, seed=2, relin=True)
    y_db = yasuda.encrypt_database(db_bits, y_pk)
    matches = yasuda.search(y_db, query, y_pk, y_sk, y_rlk)
    mult = yasuda.ctx.counter.multiplications
    rows.append(("Yasuda et al. [27]", matches, expected, f"{mult} Hom-Mults"))

    # [34] Kim et al.: HomEQ over an F_5 alphabet, compressed result.
    kim = KimHomEQMatcher(seed=2)
    chars = [int(b) for b in db_bits[:12]]  # reuse the bits as F_5 chars
    kim_db = kim.encrypt_database(chars)
    kim_matches = kim.search(kim_db, [1, 0, 1])
    kim_oracle = find_all_matches(db_bits[:12], query)
    rows.append(("Kim et al. [34] HomEQ (first 12 bits)", kim_matches, kim_oracle,
                 f"{kim.ctx.counter.multiplications} Hom-Mults -> 1 result ct"))

    # [29] Bonte & Iliashenko: batched constant-depth equality.
    bonte = BonteMatcher(seed=2)
    b_db = bonte.encrypt_database(db_bits, window_bits=3)
    matches = bonte.search(b_db, query)
    rows.append(("Bonte & Iliashenko [29]", matches, expected,
                 f"{bonte.ctx.counter.multiplications} Hom-Mults "
                 f"({len(b_db.ciphertexts)} batched cts, depth 4 always)"))

    # CIPHERMATCH: Hom-Add only.  The packing scheme detects matches at
    # chunk granularity, so the paper evaluates queries of >= 16 bits;
    # we search for the first 16 database bits (guaranteed hit at 0).
    engine = ShardedSearchEngine(ClientConfig(BFVParams.test_small(64)))
    engine.outsource(db_bits)
    report = engine.search(db_bits[:16])
    rows.append(("CIPHERMATCH (this paper, 16b query)", report.matches,
                 find_all_matches(db_bits, db_bits[:16]),
                 f"{report.hom_additions} Hom-Adds, 0 Hom-Mults"))

    width = max(len(r[0]) for r in rows)
    wrong = []
    for name, matches, oracle, note in rows:
        verdict = "ok" if list(matches) == oracle else f"WRONG, oracle {oracle}"
        print(f"{name.ljust(width)} : {matches} {verdict}  [{note}]")
        if list(matches) != oracle:
            wrong.append(name)

    print("\nquery-size restrictions (Table 1, 'flexible query size'):")
    print("  Boolean / TFHE : any length (bootstrapped gates)")
    print(f"  Kim HomEQ      : < t = {kim.params.t} characters per query")
    print(f"  Bonte          : <= {bonte.max_window_bits} bits (one F_t slot)")
    print("  CIPHERMATCH    : any length (chunks + shifted variants)")
    if wrong:
        print(f"\nmatches differ from the oracle: {', '.join(wrong)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
