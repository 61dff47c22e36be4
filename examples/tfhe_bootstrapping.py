#!/usr/bin/env python3
"""Real TFHE gate bootstrapping — the Boolean baseline without stand-ins.

The paper's Boolean prior works [17, 33] run on TFHE; this repo includes
a from-scratch TFHE implementation (repro.tfhe) with true blind-rotation
bootstrapping.  This example shows:

1. bootstrapped gates evaluating correctly at every depth (the
   "flexible query size" property of Table 1),
2. the per-bit ciphertext blow-up that makes the Boolean approach's
   memory footprint explode (§3.1), and
3. the same XNOR+AND string-matching circuit running on real TFHE and
   on the BFV stand-in, producing identical matches and gate counts.

Run:  python examples/tfhe_bootstrapping.py
"""

import time

import numpy as np

from repro.baselines import BooleanMatcher, TfheBooleanMatcher, find_all_matches
from repro.he import GateCostModel
from repro.he.keys import generate_keys
from repro.tfhe import TFHEContext, TFHEParams


def gate_depth_demo() -> None:
    print("-- unlimited depth via bootstrapping --")
    ctx = TFHEContext(TFHEParams.test_small(), seed=1)
    acc = ctx.encrypt(1)
    t0 = time.perf_counter()
    depth = 30
    for _ in range(depth):
        acc = ctx.and_(acc, ctx.encrypt(1))  # stays 1 forever
    elapsed = time.perf_counter() - t0
    print(f"{depth} chained AND gates -> decrypts to {ctx.decrypt(acc)} "
          f"(no noise ceiling; {1e3 * elapsed / depth:.1f} ms/gate at test scale)")
    print(f"bootstraps performed: {ctx.bootstrap_count}\n")


def footprint_demo() -> None:
    print("-- per-bit footprint blow-up --")
    params = TFHEParams.tfhe_lib()
    bits = 32 * 8  # a 32-byte database, as in §3.1
    encrypted = bits * params.lwe_ciphertext_bytes
    print(f"32-byte database -> {encrypted / 1024:.0f} KiB of LWE ciphertexts "
          f"({encrypted / 32:.0f}x blow-up at TFHE-lib parameters)\n")


def matcher_comparison() -> None:
    print("-- same circuit: real TFHE vs BFV stand-in --")
    rng = np.random.default_rng(3)
    db_bits = rng.integers(0, 2, 16).astype(np.uint8)
    query = np.array([1, 0, 1], dtype=np.uint8)
    db_bits[5:8] = query  # plant a guaranteed hit
    expected = find_all_matches(db_bits, query)

    tfhe_matcher = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=7)
    tfhe_db = tfhe_matcher.encrypt_database(db_bits)
    tfhe_matches = tfhe_matcher.search(tfhe_db, query)

    standin = BooleanMatcher(seed=7)
    sk, pk, rlk = generate_keys(standin.params, seed=7, relin=True)
    bfv_db = standin.encrypt_database(db_bits, pk)
    bfv_matches = standin.search(bfv_db, query, pk, sk, rlk)

    print(f"plaintext oracle : {expected}")
    print(f"real TFHE        : {tfhe_matches} "
          f"({tfhe_matcher.stats.total_gates} gates, "
          f"{tfhe_matcher.stats.bootstraps} bootstraps)")
    print(f"BFV stand-in     : {bfv_matches} "
          f"({standin.stats.total_gates} gates, 0 bootstraps)")
    assert tfhe_matches == bfv_matches == expected

    cost = GateCostModel()
    gates = TfheBooleanMatcher.gates_for(len(db_bits) * 1024, len(query))
    print(f"\ncost model: the same search over a {len(db_bits)} KiB database "
          f"would run {gates:,} gates = "
          f"{cost.time_for_gates(gates):,.0f} s single-threaded — "
          "the latency wall of Figure 2b.")


def main() -> None:
    gate_depth_demo()
    footprint_demo()
    matcher_comparison()


if __name__ == "__main__":
    main()
