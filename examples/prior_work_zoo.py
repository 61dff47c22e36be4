#!/usr/bin/env python3
"""Table 1, functionally: all five prior approaches plus CIPHERMATCH on
one small input, with per-approach operation counts.

Every matcher searches the same bit pattern; the printout shows the
qualitative trade-offs of Table 1 as *measured* quantities — gate
counts, Hom-Mult counts, ciphertext bytes, and query-size restrictions.

Run:  python examples/prior_work_zoo.py
"""

import numpy as np

from repro.baselines import (
    BonteMatcher,
    BooleanMatcher,
    KimHomEQMatcher,
    TfheBooleanMatcher,
    YasudaMatcher,
    find_all_matches,
)
from repro.core import ClientConfig, SecureStringMatchPipeline
from repro.he import BFVParams
from repro.he.keys import generate_keys
from repro.tfhe import TFHEParams


def main() -> None:
    rng = np.random.default_rng(11)
    db_bits = rng.integers(0, 2, 24).astype(np.uint8)
    query = np.array([1, 0, 1], dtype=np.uint8)
    db_bits[8:11] = query  # ensure at least one planted match
    expected = find_all_matches(db_bits, query)
    print(f"database: {''.join(map(str, db_bits))}")
    print(f"query   : {''.join(map(str, query))}  -> oracle matches {expected}\n")
    rows = []

    # [33]/[17] Boolean approach, BFV stand-in (per-bit gates).
    boolean = BooleanMatcher(seed=2)
    sk, pk, rlk = generate_keys(boolean.params, seed=2, relin=True)
    enc_db = boolean.encrypt_database(db_bits, pk)
    matches = boolean.search(enc_db, query, pk, sk, rlk)
    rows.append(("Pradel/Aziz [33,17] (BFV stand-in)", matches,
                 f"{boolean.stats.total_gates} hom. gates, "
                 f"{enc_db.serialized_bytes:,} ct bytes"))

    # Boolean approach on real bootstrapped TFHE.
    tfhe = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=2)
    tfhe_db = tfhe.encrypt_database(db_bits)
    matches = tfhe.search(tfhe_db, query)
    rows.append(("Boolean on real TFHE", matches,
                 f"{tfhe.stats.total_gates} gates / "
                 f"{tfhe.stats.bootstraps} bootstraps"))

    # [27] Yasuda et al.: Hamming distance with Hom-Mult.
    yasuda = YasudaMatcher(seed=2)
    y_sk, y_pk, y_rlk = generate_keys(yasuda.params, seed=2, relin=True)
    y_db = yasuda.encrypt_database(db_bits, y_pk)
    matches = yasuda.search(y_db, query, y_pk, y_sk, y_rlk)
    mult = yasuda.ctx.counter.multiplications
    rows.append(("Yasuda et al. [27]", matches, f"{mult} Hom-Mults"))

    # [34] Kim et al.: HomEQ over an F_5 alphabet, compressed result.
    kim = KimHomEQMatcher(seed=2)
    chars = [int(b) for b in db_bits[:12]]  # reuse the bits as F_5 chars
    kim_db = kim.encrypt_database(chars)
    kim_matches = kim.search(kim_db, [1, 0, 1])
    rows.append(("Kim et al. [34] HomEQ", kim_matches,
                 f"{kim.stats.multiplications} Hom-Mults -> 1 result ct"))

    # [29] Bonte & Iliashenko: batched constant-depth equality.
    bonte = BonteMatcher(seed=2)
    b_db = bonte.encrypt_database(db_bits, window_bits=3)
    matches = bonte.search(b_db, query)
    rows.append(("Bonte & Iliashenko [29]", matches,
                 f"{bonte.stats.multiplications} Hom-Mults "
                 f"({len(b_db.ciphertexts)} batched cts, depth 4 always)"))

    # CIPHERMATCH: Hom-Add only.  The packing scheme detects matches at
    # chunk granularity, so the paper evaluates queries of >= 16 bits;
    # we search for the first 16 database bits (guaranteed hit at 0).
    pipe = SecureStringMatchPipeline(ClientConfig(BFVParams.test_small(64)))
    pipe.outsource_database(db_bits)
    report = pipe.search(db_bits[:16])
    rows.append(("CIPHERMATCH (this paper, 16b query)", report.matches,
                 f"{report.hom_additions} Hom-Adds, 0 Hom-Mults"))

    width = max(len(r[0]) for r in rows)
    for name, matches, note in rows:
        print(f"{name.ljust(width)} : {matches}  [{note}]")

    print("\nquery-size restrictions (Table 1, 'flexible query size'):")
    print("  Boolean / TFHE : any length (bootstrapped gates)")
    print(f"  Kim HomEQ      : < t = {kim.params.t} characters per query")
    print(f"  Bonte          : <= {bonte.max_window_bits} bits (one F_t slot)")
    print("  CIPHERMATCH    : any length (chunks + shifted variants)")


if __name__ == "__main__":
    main()
