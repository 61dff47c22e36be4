"""Ablation: the Boolean substrate — real TFHE bootstrapping vs the BFV
stand-in, and homomorphic addition in TFHE gates vs in-flash latch ops.

This quantifies two design claims:

* the stand-in preserves the Boolean approach's *circuit* (identical
  gate counts) while real TFHE adds one bootstrap per binary gate;
* expressing one 32-bit Hom-Add as a Boolean circuit costs 160
  bootstrapped gates, versus 32 latch-pass bit positions in flash —
  the gap that motivates in-flash processing for HE arithmetic.
"""

import time

import numpy as np
from _util import emit

from repro.baselines import BooleanMatcher, TfheBooleanMatcher
from repro.eval.tables import format_table
from repro.flash.timing import FlashTimings
from repro.he.boolean import GateCostModel
from repro.he.keys import generate_keys
from repro.tfhe import TFHEContext, TFHEParams
from repro.tfhe.circuits import TfheArithmetic


def _gate_cost_table() -> str:
    ctx = TFHEContext(TFHEParams.test_small(), seed=4)
    reps = 10
    start = time.perf_counter()
    acc = ctx.encrypt(1)
    for _ in range(reps):
        acc = ctx.and_(acc, ctx.encrypt(1))
    measured_gate = (time.perf_counter() - start) / reps
    model = GateCostModel()
    timings = FlashTimings()

    rows = [
        [
            "real TFHE gate (test-small params)",
            f"{measured_gate * 1e3:.1f} ms",
            "measured, n=16/N=64",
        ],
        [
            "TFHE-rs gate (paper CPU)",
            f"{model.gate_latency_s * 1e3:.1f} ms",
            "GateCostModel (Fig 2b input)",
        ],
        [
            "32-bit add as Boolean circuit",
            f"{TfheArithmetic.gates_per_add(32)} gates",
            "5 gates x 32 bit positions",
        ],
        [
            "32-bit add in flash (bop_add)",
            f"{32 * timings.t_bop_add * 1e6:.0f} us",
            "Eqn 10 x 32 bit positions",
        ],
        [
            "Boolean-circuit add at model cost",
            f"{TfheArithmetic.gates_per_add(32) * model.gate_latency_s:.2f} s",
            f"{TfheArithmetic.gates_per_add(32) * model.gate_latency_s / (32 * timings.t_bop_add):,.0f}x slower than IFP",
        ],
    ]
    return format_table(
        "Ablation: Boolean substrate cost structure",
        ["quantity", "value", "note"],
        rows,
        paper_note="IFP executes Hom-Add ~2000x faster than a Boolean "
        "gate circuit evaluates the same addition",
    )


def _equivalence_table() -> str:
    rng = np.random.default_rng(8)
    db_bits = rng.integers(0, 2, 12).astype(np.uint8)
    query = np.array([1, 0], dtype=np.uint8)

    tfhe = TfheBooleanMatcher(TFHEParams.test_tiny(), seed=6)
    t_matches = tfhe.search(tfhe.encrypt_database(db_bits), query)

    standin = BooleanMatcher(seed=6)
    sk, pk, rlk = generate_keys(standin.params, seed=6, relin=True)
    s_matches = standin.search(
        standin.encrypt_database(db_bits, pk), query, pk, sk, rlk
    )

    rows = [
        ["matches", str(t_matches), str(s_matches)],
        [
            "binary gates",
            str(tfhe.stats.total_gates),
            str(standin.stats.total_gates),
        ],
        ["bootstraps", str(tfhe.stats.bootstraps), "0 (levelled BFV)"],
        [
            "per-bit ct bytes",
            str(tfhe.params.lwe_ciphertext_bytes),
            str(2 * standin.params.n * ((standin.params.log_q + 7) // 8)),
        ],
    ]
    return format_table(
        "Ablation: real TFHE vs BFV stand-in (same circuit)",
        ["quantity", "real TFHE", "BFV stand-in"],
        rows,
        paper_note="identical match sets and gate counts; only the "
        "refresh mechanism differs",
    )


def test_emit_gate_costs(benchmark):
    emit("ablation_boolean_costs", _gate_cost_table())
    benchmark.pedantic(_gate_cost_table, rounds=1, iterations=1)


def test_emit_equivalence(benchmark):
    emit("ablation_boolean_equivalence", _equivalence_table())
    benchmark.pedantic(_equivalence_table, rounds=1, iterations=1)
