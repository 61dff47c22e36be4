"""Fused vs object search-kernel speedup on the db x variant hot path.

Measures the three stages the arena kernels fuse, over a grid of
(ring degree n, database polynomials P, query variants V):

* **hom-add** — the raw db x variant ciphertext addition product:
  ``V * P`` ``ctx.add`` calls (object) vs one
  :meth:`~repro.he.arena.CiphertextArena.hom_add_broadcast` (fused);
* **query path** — the modeled CM-SW per-query serving cost: Hom-Add
  every pair, then index-generate (decrypt + all-ones flag) every
  result block.  The object path pays one ``c1 * s`` ring multiply per
  block; the fused path rides phase linearity — V batched multiplies
  for the query rows plus broadcast adds and a range test on the summed
  phase — against database phases that were computed once at
  outsourcing time (reported separately as the cold build).

Both kernels must flag the same coefficients; the script asserts it on
every cell (the fused kernel returns the sorted indices of the set
flags, the object path the dense grid).  A fourth column times index
generation alone: the kernel that runs at ``q = 2**32`` — a screen on
the 16-bit high halves, candidates confirmed in 32 bits, returning hit
indices — against the int64 body (``tests/oracles.py::int64_decrypt_flags``),
the dense ``(V, P, n)``-grid kernel
(``tests/oracles.py::dense_decrypt_flags``) and the tiled ``uint32``
body it replaced (``tests/oracles.py::uint32_decrypt_flags``), same
flags asserted; a last table times it against the ``uint32`` body on a
grid where every cell is a hit.  Runs standalone
(``python benchmarks/bench_homadd.py``) or under pytest.
``--quick`` runs the small and the large grid cell and **exits non-zero
if the fused kernel is not faster than the object kernel, or at the
large cell holds less than 1.8x on the add, 40x on the query path, 2x
for the kernel over the int64 body or 1.4x over the uint32 body, or
takes more than 1.15x the dense kernel's add + compare to return the
hits, or more than 1.5x the uint32 body on the all-hits grid** — the CI
bench-smoke gate.  The acceptance target for this repo is >= 5x on the
full query path at n=4096 with >= 64 polynomials; the table records the
measured ratio.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time
import tracemalloc

import numpy as np

from _util import emit

# the int64 reference kernel lives with the other test oracles
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from tests.oracles import (  # noqa: E402
    dense_decrypt_flags,
    int64_decrypt_flags,
    uint32_decrypt_flags,
)

from repro.eval.tables import format_table
from repro.he import BFVParams
from repro.he.arena import (
    CiphertextArena,
    add_mod_q,
    fused_decrypt_flags,
    mul_rows_by_poly,
    stack_ciphertext,
)
from repro.he.bfv import BFVContext
from repro.he.keys import generate_keys

PAPER_Q = 1 << 32
PAPER_T = 1 << 16
CHUNK_WIDTH = 16

#: (n, num_polys, num_variants) grid; the 4096/64/16 cell is the
#: acceptance configuration (paper chunk width w=16 => 16 variants).
FULL_GRID = [(1024, 16, 8), (4096, 64, 16), (4096, 128, 16)]
#: --quick covers both ends: the small cell (object path cheap enough
#: for tight timing) AND the large memory-bound cell, where the fused
#: advantage used to collapse to ~1.1x before the tiled add — the CI
#: gate demands >= 1.8x there so the regression can't silently return.
QUICK_GRID = [(1024, 16, 8), (4096, 128, 16)]

#: the memory-bound cell's Hom-Add gate (raw broadcast add vs V*P
#: ctx.add calls, steady-state output buffer).  The ratio is memory
#: bandwidth against interpreter speed, so it moves with the host:
#: 3.5x on the 1-CPU host the tiled add was written on, 2.2-2.5x on the
#: 2-CPU host of BENCH_16/18 (where 3.0 failed for the wrong reason).
#: The regression it exists for reads ~1.1x on either.
LARGE_ADD_GATE = 1.8

#: the same cell's query-path gate (what serving runs: query-phase
#: multiplies + range-test flags vs V*P add/decrypt/compare).  Plaintext
#: scaling per coefficient held this at 15-18x; the range test measures
#: ~100x, so the floor sits between them and a division creeping back
#: into index generation fails it.
LARGE_QUERY_GATE = 40.0

#: the same cell's index-generation gate: the uint32 kernel streams half
#: the bytes of the int64 body and drops the mask pass (measured 3.2x on
#: the reference host), so 2x fails a silent fall back to int64 rows
LARGE_KERNEL_GATE = 2.0

#: the same cell's high-half screen gate: one uint16 gather + add +
#: compare per block of 4 variants and short-circuiting scans measure
#: 1.6-2.2x the tiled uint32 body it replaced; 1.4x fails a screen that
#: passes too many candidates or a return to the per-variant uint32 pass
LARGE_SCREEN_GATE = 1.4

#: the hit-storm bound: on a grid where every cell is a hit, the first
#: block runs the screen and the capped scans, then the call takes the
#: exact uint32 test, and may take at most this much of the uint32
#: body's time (measured 1.05-1.15x; falling back one block at a time
#: read 1.37-1.50x, scanning every hit without a cap ~430x)
STORM_GATE = 1.5

#: the all-hits grid: one scan shard task's shape (n, polys, variants)
STORM_CELL = (1024, 64, 33)

#: the same cell's hit-extraction ceiling: returning the sorted indices
#: of the set flags (tiled scratch + one ``flatnonzero`` per tile) may
#: cost at most this much of the dense kernel's add + compare into a
#: fresh ``(V, P, n)`` grid.  Measured 0.8-0.9x (the tiles stay in
#: cache and no 8 MiB grid is faulted in); an extraction pass over a
#: materialized grid reads ~1.4x.
LARGE_HITS_GATE = 1.15

#: fused peak allocation must stay within this factor of the object
#: path's high-water mark at the large cell (catches any return of the
#: double full-product materialization)
PEAK_RATIO_GATE = 1.5


def _time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_bytes(fn) -> int:
    """High-water allocation mark of one ``fn()`` call (tracemalloc
    sees NumPy buffers through the PyDataMem hooks)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


#: RNG seed for keys, ciphertexts and payloads; pinned so the CI gate
#: (--quick) replays the identical workload on every run
DEFAULT_SEED = 17


def _setup(n: int, num_polys: int, num_variants: int, seed: int = DEFAULT_SEED):
    params = BFVParams(n=n, q=PAPER_Q, t=PAPER_T, name=f"bench-n{n}")
    ctx = BFVContext(params, seed=seed)
    sk, pk, _ = generate_keys(params, seed)
    rng = np.random.default_rng(seed)
    db_cts = [
        ctx.encrypt(
            ctx.plaintext(rng.integers(0, params.t, size=n, dtype=np.int64)), pk
        )
        for _ in range(num_polys)
    ]
    q_cts = [
        ctx.encrypt(
            ctx.plaintext(rng.integers(0, params.t, size=n, dtype=np.int64)), pk
        )
        for _ in range(num_variants)
    ]
    return params, ctx, sk, db_cts, q_cts


def bench_cell(
    n: int, num_polys: int, num_variants: int, reps: int,
    seed: int = DEFAULT_SEED,
) -> dict:
    params, ctx, sk, db_cts, q_cts = _setup(n, num_polys, num_variants, seed)
    q = params.q

    # ---- object kernel -------------------------------------------------
    def object_homadd():
        return [
            ctx.add(db_ct, q_ct) for q_ct in q_cts for db_ct in db_cts
        ]

    def object_query_path():
        flags = []
        for result in object_homadd():
            pt = ctx.decrypt(result, sk)
            flags.append(pt.poly.coeffs == (1 << CHUNK_WIDTH) - 1)
        return np.asarray(flags).reshape(num_variants, num_polys, n)

    # ---- fused kernel --------------------------------------------------
    arena = CiphertextArena.from_ciphertexts(ctx.ring, params, db_cts)
    q_stack = np.stack([stack_ciphertext(ct) for ct in q_cts])
    row_map = np.tile(
        np.arange(num_variants, dtype=np.intp)[:, None], (1, num_polys)
    )

    # Steady-state serving shape: the engine reuses its result buffer
    # across queries, so the timed kernel writes into a preallocated
    # grid — fresh-page faults would otherwise dominate the tiled add
    # at memory-bound sizes and measure the allocator, not the kernel.
    grid_out = np.empty((num_variants, num_polys, 2, n), dtype=np.int64)

    def fused_homadd():
        return arena.hom_add_broadcast(q_stack, out=grid_out)

    def fused_db_phases():
        # the once-per-outsourcing cost: c0 + c1 * s over all db rows
        return add_mod_q(
            arena.c0_rows(), mul_rows_by_poly(ctx.ring, arena.stack[:, 1], sk.s), q
        )

    db_phases = fused_db_phases()
    # what CiphertextArena.phases hands the kernel at q = 2**32
    db_phases32 = db_phases.astype(np.uint32)

    def fused_query_path():
        # per-query steady state: V query-phase multiplies + broadcast
        # adds + range-test flags over the whole grid, as hit indices
        q_phases = add_mod_q(
            q_stack[:, 0],
            mul_rows_by_poly(ctx.ring, q_stack[:, 1], sk.s),
            q,
        )
        return fused_decrypt_flags(
            db_phases32, q_phases, row_map, params, CHUNK_WIDTH
        )

    # index generation alone, on the rows each kernel streams
    q_phases = add_mod_q(
        q_stack[:, 0], mul_rows_by_poly(ctx.ring, q_stack[:, 1], sk.s), q
    )
    q_phases32 = q_phases.astype(np.uint32)

    def kernel_fused():
        return fused_decrypt_flags(
            db_phases32, q_phases32, row_map, params, CHUNK_WIDTH
        )

    def kernel_uint32():
        # the tiled uint32 body the high-half screen replaced
        return uint32_decrypt_flags(
            db_phases32, q_phases32, row_map, params, CHUNK_WIDTH
        )

    def kernel_int64():
        return int64_decrypt_flags(
            db_phases, q_phases, row_map, params, CHUNK_WIDTH
        )

    def kernel_dense():
        # the same uint32 add + compare, written into a (V, P, n) grid
        return dense_decrypt_flags(
            db_phases32, q_phases32, row_map, params, CHUNK_WIDTH
        )

    def same_flags(hits, dense):
        return len(hits) == len(dense) and all(
            np.array_equal(found, np.flatnonzero(grid))
            for found, grid in zip(hits, dense)
        )

    # bit-for-bit parity before timing anything
    assert same_flags(fused_query_path(), object_query_path()), (
        "fused flags diverged from object flags — run tests/he/test_arena.py"
    )
    assert same_flags(kernel_fused(), kernel_int64()), (
        "flag kernel diverged from the int64 body — run tests/he/test_arena.py"
    )
    assert same_flags(kernel_fused(), kernel_dense()), (
        "hit indices diverged from the dense grid — run tests/he/test_arena.py"
    )
    assert all(
        np.array_equal(a, b) for a, b in zip(kernel_fused(), kernel_uint32())
    ), "flag kernel diverged from the uint32 body — run tests/he/test_arena.py"
    grid = fused_homadd()
    ref = object_homadd()
    for v in range(num_variants):
        for j in range(num_polys):
            block = ref[v * num_polys + j]
            assert np.array_equal(grid[v, j, 0], block.c0.coeffs)
            assert np.array_equal(grid[v, j, 1], block.c1.coeffs)

    t_obj_add = _time(object_homadd, reps)
    t_fused_add = _time(fused_homadd, reps)
    t_obj_query = _time(object_query_path, max(1, reps // 2))
    t_fused_query = _time(fused_query_path, reps)
    t_phase_build = _time(fused_db_phases, max(1, reps // 2))
    t_kernel = _time(kernel_fused, reps)
    t_kernel_uint32 = _time(kernel_uint32, reps)
    t_kernel_int64 = _time(kernel_int64, reps)
    t_kernel_dense = _time(kernel_dense, reps)

    # High-water allocation of the full Hom-Add product, fused (cold,
    # fresh output) vs object (V*P result ciphertexts).  The tiled
    # kernel must never materialize more than the result itself.
    object_peak = _peak_bytes(object_homadd)
    fused_peak = _peak_bytes(lambda: arena.hom_add_broadcast(q_stack))

    pairs = num_variants * num_polys
    return {
        "n": n,
        "polys": num_polys,
        "variants": num_variants,
        "object_add_ms": t_obj_add * 1e3,
        "fused_add_ms": t_fused_add * 1e3,
        "add_speedup": t_obj_add / t_fused_add,
        "object_query_ms": t_obj_query * 1e3,
        "fused_query_ms": t_fused_query * 1e3,
        "query_speedup": t_obj_query / t_fused_query,
        "phase_build_ms": t_phase_build * 1e3,
        "kernel_ms": t_kernel * 1e3,
        "kernel_int64_ms": t_kernel_int64 * 1e3,
        "kernel_speedup": t_kernel_int64 / t_kernel,
        "kernel_uint32_ms": t_kernel_uint32 * 1e3,
        "screen_speedup": t_kernel_uint32 / t_kernel,
        "kernel_dense_ms": t_kernel_dense * 1e3,
        "hits_vs_dense": t_kernel / t_kernel_dense,
        "object_pairs_per_sec": pairs / t_obj_query,
        "fused_pairs_per_sec": pairs / t_fused_query,
        "object_peak_mib": object_peak / 2**20,
        "fused_peak_mib": fused_peak / 2**20,
        "peak_ratio": fused_peak / max(1, object_peak),
    }


def bench_storm(
    n: int, num_polys: int, num_variants: int, reps: int,
    seed: int = DEFAULT_SEED,
) -> dict:
    """The flag kernel against the uint32 body on a grid where every
    cell is a hit: every polynomial holds the same phases and every
    variant's query row puts each sum inside the match window."""
    params = BFVParams(n=n, q=PAPER_Q, t=PAPER_T, name=f"storm-n{n}")
    q, t, match = params.q, params.t, (1 << CHUNK_WIDTH) - 1
    lo = -((q // 2 - match * q) // t)
    width = -((q // 2 - (match + 1) * q) // t) - lo
    rng = np.random.default_rng(seed)
    db_row = rng.integers(0, q, size=n, dtype=np.int64)
    db_phases = np.tile(db_row, (num_polys, 1)).astype(np.uint32)
    sums = rng.integers(0, width, size=(num_variants, n), dtype=np.int64)
    q_phases = ((sums + lo - db_row) % q).astype(np.uint32)
    row_map = np.tile(
        np.arange(num_variants, dtype=np.intp)[:, None], (1, num_polys)
    )
    args = (db_phases, q_phases, row_map, params, CHUNK_WIDTH)
    hits = fused_decrypt_flags(*args)
    assert all(len(found) == num_polys * n for found in hits)
    assert all(
        np.array_equal(a, b) for a, b in zip(hits, uint32_decrypt_flags(*args))
    ), "flag kernel diverged from the uint32 body on the all-hits grid"
    # alternate the two kernels so that both see the same host and the
    # same allocator state (each returns 2**21 hit indices here)
    t_kernel = t_uint32 = float("inf")
    for _ in range(2 * reps):
        t_kernel = min(t_kernel, _time(lambda: fused_decrypt_flags(*args), 1))
        t_uint32 = min(t_uint32, _time(lambda: uint32_decrypt_flags(*args), 1))
    return {
        "n": n,
        "polys": num_polys,
        "variants": num_variants,
        "kernel_ms": t_kernel * 1e3,
        "kernel_uint32_ms": t_uint32 * 1e3,
        "storm_ratio": t_kernel / t_uint32,
    }


def run(quick: bool, seed: int = DEFAULT_SEED) -> int:
    reps = 5 if quick else 7
    grid = QUICK_GRID if quick else FULL_GRID
    rows = [bench_cell(*cell, reps=reps, seed=seed) for cell in grid]
    storm = bench_storm(*STORM_CELL, reps=reps, seed=seed)

    table = format_table(
        "Fused vs object search kernels, q=2**32 w=16 (best of %d)" % reps,
        [
            "n", "polys", "variants",
            "obj add ms", "fused add ms", "add x",
            "obj query ms", "fused query ms", "query x",
            "db-phase build ms", "flags ms (int64/dense/uint32/hits)",
            "flags x", "vs uint32 x", "hits/dense",
            "peak MiB (obj/fused)",
        ],
        [
            [
                r["n"], r["polys"], r["variants"],
                f"{r['object_add_ms']:.2f}", f"{r['fused_add_ms']:.2f}",
                f"{r['add_speedup']:.1f}x",
                f"{r['object_query_ms']:.1f}", f"{r['fused_query_ms']:.1f}",
                f"{r['query_speedup']:.1f}x",
                f"{r['phase_build_ms']:.1f}",
                f"{r['kernel_int64_ms']:.2f}/{r['kernel_dense_ms']:.2f}"
                f"/{r['kernel_uint32_ms']:.2f}/{r['kernel_ms']:.2f}",
                f"{r['kernel_speedup']:.1f}x",
                f"{r['screen_speedup']:.2f}x",
                f"{r['hits_vs_dense']:.2f}x",
                f"{r['object_peak_mib']:.0f}/{r['fused_peak_mib']:.0f}",
            ]
            for r in rows
        ],
        paper_note=(
            "query path = Hom-Add + decrypt + flag per (poly, variant) pair "
            "(the CM-SW serving inner loop); db phases amortize over the "
            "database lifetime; fused add reuses the steady-state result "
            "buffer (tiled kernel); flags = index generation alone, the "
            "int64 body, the dense-grid and the tiled uint32 kernels "
            "(tests/oracles.py) vs the high-half screen that runs at "
            f"q=2**32 and returns the hit indices; host cpus={os.cpu_count()}"
        ),
    )
    storm_table = format_table(
        "Flag kernel on an all-hits grid, q=2**32 w=16 (best of %d, "
        "alternating)" % (2 * reps),
        ["n", "polys", "variants", "uint32 body ms", "screen ms", "ratio"],
        [[
            storm["n"], storm["polys"], storm["variants"],
            f"{storm['kernel_uint32_ms']:.2f}", f"{storm['kernel_ms']:.2f}",
            f"{storm['storm_ratio']:.2f}x",
        ]],
        paper_note=(
            "every cell a hit: the first block spends its capped scans, "
            "then the call takes the exact uint32 test (the hit-storm bound)"
        ),
    )
    emit("bench_homadd", table + "\n" + storm_table)
    if storm["storm_ratio"] > STORM_GATE:
        print(
            f"FAIL: flag kernel takes {storm['storm_ratio']:.2f}x the uint32 "
            f"body on the all-hits grid n={storm['n']} P={storm['polys']} "
            f"V={storm['variants']} (gate: {STORM_GATE}x) — a hit storm is "
            f"no longer bounded by the per-block fallback",
            file=sys.stderr,
        )
        return 1

    # CI gate: fused must beat object on every measured cell.
    worst = min(rows, key=lambda r: r["query_speedup"])
    if worst["query_speedup"] <= 1.0 or worst["add_speedup"] <= 1.0:
        print(
            f"FAIL: fused kernel not faster at n={worst['n']} "
            f"(add {worst['add_speedup']:.2f}x, "
            f"query {worst['query_speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    # Gates at the large cell: the tiled add must hold >= 1.8x, the query
    # path >= 40x, the flag kernel >= 2x the int64 body, >= 1.4x the
    # uint32 body and <= 1.15x the dense-grid kernel, and the add must
    # not allocate beyond ~the result grid itself.
    for r in rows:
        if not (r["n"] >= 4096 and r["polys"] >= 128):
            continue
        if r["add_speedup"] < LARGE_ADD_GATE:
            print(
                f"FAIL: fused add only {r['add_speedup']:.2f}x object at "
                f"n={r['n']} P={r['polys']} V={r['variants']} "
                f"(gate: {LARGE_ADD_GATE}x) — memory-bound tail regressed",
                file=sys.stderr,
            )
            return 1
        if r["query_speedup"] < LARGE_QUERY_GATE:
            print(
                f"FAIL: fused query path only {r['query_speedup']:.1f}x "
                f"object at n={r['n']} P={r['polys']} V={r['variants']} "
                f"(gate: {LARGE_QUERY_GATE}x) — index generation is doing "
                f"more than add + fold + compare per coefficient",
                file=sys.stderr,
            )
            return 1
        if r["kernel_speedup"] < LARGE_KERNEL_GATE:
            print(
                f"FAIL: uint32 flag kernel only {r['kernel_speedup']:.2f}x "
                f"the int64 body at n={r['n']} P={r['polys']} "
                f"V={r['variants']} (gate: {LARGE_KERNEL_GATE}x) — phase "
                f"rows at q = 2**32 are no longer streamed as uint32",
                file=sys.stderr,
            )
            return 1
        if r["screen_speedup"] < LARGE_SCREEN_GATE:
            print(
                f"FAIL: flag kernel only {r['screen_speedup']:.2f}x the "
                f"uint32 body at n={r['n']} P={r['polys']} V={r['variants']} "
                f"(gate: {LARGE_SCREEN_GATE}x) — the high-half screen is "
                f"not what index generation runs",
                file=sys.stderr,
            )
            return 1
        if r["hits_vs_dense"] > LARGE_HITS_GATE:
            print(
                f"FAIL: returning hit indices takes "
                f"{r['hits_vs_dense']:.2f}x the dense add + compare at "
                f"n={r['n']} P={r['polys']} V={r['variants']} "
                f"(gate: {LARGE_HITS_GATE}x) — the flag kernel is extracting "
                f"from more than a cache-resident tile",
                file=sys.stderr,
            )
            return 1
        if r["peak_ratio"] > PEAK_RATIO_GATE:
            print(
                f"FAIL: fused add peak allocation "
                f"{r['fused_peak_mib']:.0f} MiB exceeds "
                f"{PEAK_RATIO_GATE}x object ({r['object_peak_mib']:.0f} MiB) "
                f"at n={r['n']} P={r['polys']} — full product "
                f"materialized more than once",
                file=sys.stderr,
            )
            return 1
    target = 5.0
    gate = next(
        (r for r in rows if r["n"] == 4096 and r["polys"] >= 64), rows[-1]
    )
    status = "meets" if gate["query_speedup"] >= target else "BELOW"
    print(
        f"n={gate['n']} P={gate['polys']} V={gate['variants']} query-path "
        f"speedup: {gate['query_speedup']:.1f}x "
        f"(Hom-Add alone {gate['add_speedup']:.1f}x; {status} the "
        f"{target}x target)"
    )
    return 0


def test_emit_homadd_kernel_speedup(benchmark):
    """Pytest entry point (same artifact, quick shape)."""
    benchmark(lambda: None)
    assert run(quick=True) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small grid cell; non-zero exit if the fused kernel is "
        "slower than the object kernel (CI gate)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"RNG seed (default: {DEFAULT_SEED}, pinned so the CI gate "
        "replays the identical workload every run)",
    )
    args = parser.parse_args()
    return run(quick=args.quick, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
