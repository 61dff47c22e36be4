"""Ablation: the Boolean substrate — homomorphic addition as bootstrapped
TFHE gates vs as in-flash latch ops.

Expressing one 32-bit Hom-Add as a Boolean circuit costs 160
bootstrapped gates, versus 32 latch-pass bit positions in flash — the
gap that motivates in-flash processing for HE arithmetic.
"""

import time

from _util import emit

from repro.eval.calibration import SoftwareFamilyCalibration
from repro.eval.tables import format_table
from repro.flash.timing import FlashTimings
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
    gate_s = SoftwareFamilyCalibration().gate_latency_s
    timings = FlashTimings()

    rows = [
        [
            "real TFHE gate (test-small params)",
            f"{measured_gate * 1e3:.1f} ms",
            "measured, n=16/N=64",
        ],
        [
            "TFHE-rs gate (paper CPU)",
            f"{gate_s * 1e3:.1f} ms",
            "SoftwareFamilyCalibration.gate_latency_s",
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
            f"{TfheArithmetic.gates_per_add(32) * gate_s:.2f} s",
            f"{TfheArithmetic.gates_per_add(32) * gate_s / (32 * timings.t_bop_add):,.0f}x slower than IFP",
        ],
    ]
    return format_table(
        "Ablation: Boolean substrate cost structure",
        ["quantity", "value", "note"],
        rows,
        paper_note="IFP executes Hom-Add ~2000x faster than a Boolean "
        "gate circuit evaluates the same addition",
    )


def test_emit_gate_costs(benchmark):
    emit("ablation_boolean_costs", _gate_cost_table())
    benchmark.pedantic(_gate_cost_table, rounds=1, iterations=1)
