"""Ablation: packing chunk width (design-choice bench).

Sweeps the bits-per-coefficient packing width from 1 (the arithmetic
baseline's density) to 16 (CIPHERMATCH) and reports the encrypted
footprint expansion and the number of Hom-Adds a 32-bit query costs —
the two quantities the paper's Key Insight (§4.2.1) trades off.
"""

import numpy as np
import pytest

from _util import emit
from repro.core import ClientConfig
from repro.eval import format_table
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.utils.bits import random_bits

WIDTHS = (1, 2, 4, 8, 16)


def run_width(width: int):
    params = BFVParams.test_small(64)
    engine = ShardedSearchEngine(
        ClientConfig(params, chunk_width=width, key_seed=width)
    )
    rng = np.random.default_rng(width)
    db = random_bits(2048, rng)
    q = random_bits(32, rng)
    off = width * 8 * ((64 // width) // 2)  # multiple of the chunk width
    off -= off % width
    db[off : off + 32] = q
    enc = engine.outsource(db)
    report = engine.search(q)
    assert off in report.matches, f"width {width}"
    raw_bytes = len(db) // 8
    return {
        "width": width,
        "expansion": enc.serialized_bytes / raw_bytes,
        "hom_adds": report.hom_additions,
        "variants": report.num_variants,
    }


@pytest.mark.parametrize("width", WIDTHS)
def test_search_correct_at_width(benchmark, width):
    benchmark.pedantic(run_width, args=(width,), rounds=1, iterations=1)


def test_emit_packing_ablation(benchmark):
    rows = [run_width(w) for w in WIDTHS]
    table = format_table(
        "Ablation: packing width vs footprint and Hom-Add count (32b query, 2Kb DB)",
        ["width", "expansion", "hom_adds", "variants"],
        [[r["width"], r["expansion"], r["hom_adds"], r["variants"]] for r in rows],
        paper_note="16-bit packing gives the 4x footprint (vs 64x at 1 bit) "
        "that Key Insight §4.2.1 claims",
        float_format="{:.1f}",
    )
    emit("ablation_packing", table)
    by_width = {r["width"]: r for r in rows}
    # denser packing -> smaller footprint
    assert by_width[16]["expansion"] < by_width[1]["expansion"]
    # the 16x footprint reduction of the paper
    assert by_width[1]["expansion"] / by_width[16]["expansion"] == pytest.approx(
        16.0, rel=0.05
    )
    benchmark(lambda: None)
