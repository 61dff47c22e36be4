#!/usr/bin/env python3
"""Real TFHE gate bootstrapping — the Boolean baseline's native scheme.

The paper's Boolean prior works [17, 33] run on TFHE; this repo includes
a from-scratch TFHE implementation (repro.tfhe) with true blind-rotation
bootstrapping.  This example shows:

1. bootstrapped gates evaluating correctly at every depth (the
   "flexible query size" property of Table 1),
2. the per-bit ciphertext blow-up that makes the Boolean approach's
   memory footprint explode (§3.1), and
3. the XNOR+AND string-matching circuit of the Boolean baseline,
   matching the plaintext oracle with one bootstrap per binary gate.

Run:  python examples/tfhe_bootstrapping.py
"""

import time

import numpy as np

from repro.baselines import TfheBooleanMatcher, find_all_matches
from repro.eval.calibration import SoftwareFamilyCalibration
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


def string_matching() -> None:
    print("-- the Boolean baseline: XNOR + AND per alignment --")
    rng = np.random.default_rng(3)
    db_bits = rng.integers(0, 2, 16).astype(np.uint8)
    query = np.array([1, 0, 1], dtype=np.uint8)
    db_bits[5:8] = query  # plant a guaranteed hit
    expected = find_all_matches(db_bits, query)

    matcher = TfheBooleanMatcher(TFHEParams.test_small(), seed=7)
    matches = matcher.search(matcher.encrypt_database(db_bits), query)

    print(f"plaintext oracle : {expected}")
    print(f"real TFHE        : {matches} "
          f"({matcher.ctx.total_gates()} gates, "
          f"{matcher.ctx.bootstrap_count} bootstraps)")
    assert matches == expected
    assert matcher.ctx.total_gates() == TfheBooleanMatcher.gates_for(
        len(db_bits), len(query)
    )

    gate_s = SoftwareFamilyCalibration().gate_latency_s
    gates = TfheBooleanMatcher.gates_for(len(db_bits) * 1024, len(query))
    print(f"\ncost model: the same search over a {len(db_bits)} KiB database "
          f"would run {gates:,} gates = {gates * gate_s:,.0f} s "
          "single-threaded — the latency wall of Figure 2b.")


def main() -> None:
    gate_depth_demo()
    footprint_demo()
    string_matching()


if __name__ == "__main__":
    main()
