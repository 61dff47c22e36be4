"""In-flash processing walkthrough: watch the bop_add µ-program run.

Traces the 13-step bit-serial addition (Figure 5) at the latch level
inside one simulated NAND plane, then runs a complete secure search
with the Hom-Adds executed by the in-flash backend instead of the CPU,
reporting the simulated time/energy the Table-3 model charges.

Run:  python examples/ifp_walkthrough.py
"""

import numpy as np

from repro.core import ClientConfig
from repro.flash import BitSerialAdder, FlashArray, FlashGeometry, FlashTimings
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.ssd import IFPAdditionBackend
from repro.utils.bits import random_bits


def trace_one_word_add() -> None:
    print("=== bop_add micro-op trace (one 8-bit addition) ===")
    geo = FlashGeometry.functional(num_bitlines=8, wordlines=16)
    plane = FlashArray(geo).plane(0)
    adder = BitSerialAdder(plane, word_bits=8)
    a = np.array([0b10110101], dtype=np.int64)
    b = np.array([0b01001011], dtype=np.int64)
    adder.store_words(0, a)
    plane.latches.trace.enabled = True
    result = adder.add(0, b)
    print(f"A = {int(a[0]):#010b}, B = {int(b[0]):#010b}")
    print(f"A + B = {int(result[0]):#010b} (expected {int((a[0]+b[0]) % 256):#010b})")
    counts = plane.latches.trace.counts()
    print(f"micro-ops for 8 bit positions: {counts}")
    per_bit = {k: v / 8 for k, v in counts.items() if k != "reset_d"}
    print(f"per bit position: {per_bit}")
    print(
        "  -> 1 read + 2 XOR + 5 latch transfers + 4 AND/OR-class + 2 DMA "
        "per bit: exactly Eqn (10)"
    )
    t = FlashTimings()
    print(
        f"modelled latency: t_bit_add = {t.t_bit_add*1e6:.2f} us "
        f"(paper Table 3: 29.38 us); 32-bit add = {t.t_word_add(32)*1e3:.3f} ms\n"
    )


def search_in_flash() -> None:
    print("=== full secure search executed inside the flash simulator ===")
    rng = np.random.default_rng(5)
    db = random_bits(2400, rng)
    query = random_bits(32, rng)
    db[640:672] = query
    db[1203:1235] = query  # non-aligned occurrence (phase 3)

    engine = ShardedSearchEngine(
        ClientConfig(BFVParams.test_small(64), key_seed=55),
        backend_factory=lambda ctx, shard_id: IFPAdditionBackend(ctx),
    )
    engine.outsource(db)
    (shard,) = engine.shards
    backend, counter = shard.backend, engine.client.ctx.counter
    adds_before = counter.additions
    report = engine.search(query)
    print(f"matches found in-flash: {report.matches} (planted: [640, 1203])")
    assert report.matches == [640, 1203]
    print(
        "homomorphic additions executed by bop_add: "
        f"{counter.additions - adds_before}"
    )
    geo = backend.ssd.flash.geometry
    print(
        f"simulated device: {geo.channels} channels x {geo.dies_per_channel} "
        f"dies x {geo.planes_per_die} planes, {geo.bitlines_per_plane} "
        f"bitlines/plane"
    )
    print(
        f"simulated flash time: {backend.ssd.simulated_seconds*1e3:.2f} ms, "
        f"energy: {backend.ssd.simulated_joules*1e3:.2f} mJ "
        f"(Table-3 constants, serial charge; real device runs planes in "
        f"parallel)"
    )


if __name__ == "__main__":
    trace_one_word_add()
    search_in_flash()
