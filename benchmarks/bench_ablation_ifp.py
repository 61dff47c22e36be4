"""Ablation: IFP design choices — geometry parallelism, SLC vs TLC
reads, and software vs hardware transposition (design bench list)."""

import numpy as np
import pytest

from _util import emit
from repro.eval import format_table
from repro.eval.calibration import GIB, HardwareFamilyCalibration
from repro.flash import (
    BitSerialAdder,
    FlashArray,
    FlashGeometry,
    FlashTimings,
)
from repro.ndp import HardwarePerformanceModel, WorkloadPoint
from repro.ssd import DataTranspositionUnit


def ifp_speedup_with_geometry(geometry: FlashGeometry) -> float:
    cal = HardwareFamilyCalibration(geometry=geometry)
    model = HardwarePerformanceModel(cal)
    w = WorkloadPoint(128 * GIB, 16)
    return model.time_cm_sw(w) / model.time_cm_ifp(w)


def test_emit_parallelism_sweep(benchmark):
    """CM-IFP speedup scales with channel/die/plane parallelism."""
    rows = []
    for channels, dies, planes in [(2, 2, 1), (4, 4, 2), (8, 8, 2), (16, 8, 4)]:
        geo = FlashGeometry(
            channels=channels, dies_per_channel=dies, planes_per_die=planes
        )
        rows.append(
            [
                f"{channels}ch x {dies}die x {planes}pl",
                geo.parallel_bitlines / 1e6,
                ifp_speedup_with_geometry(geo),
            ]
        )
    table = format_table(
        "Ablation: CM-IFP speedup over CM-SW vs flash parallelism (16b, 128GB)",
        ["geometry", "parallel bitlines (M)", "speedup"],
        rows,
        paper_note="Table 3 geometry = 8ch x 8die x 2pl; speedup saturates "
        "once compute stops being the bottleneck",
    )
    emit("ablation_ifp_parallelism", table)
    assert rows[-1][2] > rows[0][2]
    benchmark(lambda: None)


def test_emit_read_latency_ablation(benchmark):
    """SLC vs TLC vs Z-NAND read latency dominates T_bit_add (Eqn 9)."""
    rows = []
    for name, t_read in [("Z-NAND", 3e-6), ("SLC (ESP)", 22.5e-6), ("TLC", 61e-6)]:
        t = FlashTimings(t_read_slc=t_read)
        rows.append([name, t_read * 1e6, t.t_bit_add * 1e6, t.t_word_add(32) * 1e3])
    table = format_table(
        "Ablation: flash read latency vs bit-serial add cost",
        ["cell mode", "t_read us", "t_bit_add us", "t_32b_add ms"],
        rows,
        paper_note="read latency is >75% of Eqn 9; ESP SLC reads are the "
        "reliability/latency point CIPHERMATCH picks",
        float_format="{:.2f}",
    )
    emit("ablation_ifp_read", table)
    assert rows[0][2] < rows[1][2] < rows[2][2]
    benchmark(lambda: None)


def test_emit_transposition_ablation(benchmark):
    """Software vs hardware transposition: overlap with flash reads."""
    rows = []
    for hw in (False, True):
        unit = DataTranspositionUnit(hardware=hw)
        rows.append(
            [
                "hardware" if hw else "software",
                unit.latency_per_page * 1e6,
                "yes" if unit.costs.hidden_under_read(hw) else "no",
                (
                    "yes"
                    if unit.costs.hidden_under_read(
                        hw, unit.costs.znand_read_latency
                    )
                    else "no"
                ),
            ]
        )
    table = format_table(
        "Ablation: transposition unit (overlappable with reads?)",
        ["unit", "latency/page us", "hidden @22.5us read", "hidden @3us Z-NAND"],
        rows,
        paper_note="software 13.6us hides under SLC reads; Z-NAND needs the "
        "158ns hardware unit (§7.1)",
        float_format="{:.2f}",
    )
    emit("ablation_ifp_transposition", table)
    benchmark(lambda: None)


@pytest.mark.parametrize("bitlines", [512, 2048, 4096])
def test_functional_add_scales_with_bitlines(benchmark, bitlines):
    """Functional wall-clock of one bop_add wave vs plane width (the
    simulator itself is vectorized across bitlines)."""
    geo = FlashGeometry.functional(num_bitlines=bitlines, wordlines=64)
    adder = BitSerialAdder(FlashArray(geo).plane(0), 32)
    rng = np.random.default_rng(1)
    a = rng.integers(0, 1 << 32, bitlines).astype(np.int64)
    b = rng.integers(0, 1 << 32, bitlines).astype(np.int64)
    adder.store_words(0, a)
    result = benchmark(adder.add, 0, b)
    assert np.array_equal(result, (a + b) % (1 << 32))
