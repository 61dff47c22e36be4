"""Polynomial-backend speedup: reference vs vectorized RNS/NTT.

Four measurements:

* negacyclic multiply at the paper modulus (``q = 2**32``) across ring
  degrees — the operation behind every encrypt (``pk0 * u``) and every
  decrypt (``c1 * s``);
* the scalar-multiply and automorphism kernels at a 41-bit modulus,
  where the reference path falls back to Python-int arithmetic;
* end-to-end serving throughput of :class:`ShardedSearchEngine` under
  each backend (decode decrypts one result block per Hom-Add, so the
  vectorized multiply directly lifts queries/sec);
* the small-operand product at the paper's parameters (n = 1024,
  ``q = 2**32``): a cached public-key operand times a fresh ternary
  mask, on the general 3-limb basis (``*``) and as the exact float64
  FFT :meth:`~repro.he.poly.RingPoly.mul_by_small` sizes from the
  mask's checked magnitude — the product under every fresh row.

Runs standalone (``python benchmarks/bench_poly.py``) or under pytest.
``--quick`` restricts to the n=4096 multiply and the small product and
**exits non-zero if the vectorized backend is not faster than reference
or the small product not at least 2x the general one** — the CI
bench-smoke gate.  The acceptance target for this repo is >= 5x on the n=4096
multiply; the table records the measured ratio.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _util import emit

from repro.core import ClientConfig
from repro.eval.tables import format_table
from repro.he.poly import RingContext, RingPoly
from repro.serve import ShardedSearchEngine
from repro.utils.bits import random_bits

PAPER_Q = 1 << 32
WIDE_Q = (1 << 40) + 123


def _time(fn, reps: int) -> float:
    """Best-of-reps seconds for one call of ``fn`` (robust to scheduler
    noise, the standard for microbenchmarks)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _fresh(ring: RingContext, coeffs: np.ndarray) -> RingPoly:
    """A poly wrapper with no cached NTT transform (cold-path timing)."""
    return ring.make(coeffs)


#: base RNG seed; every measurement derives its stream from this, so
#: the CI gate (--quick) replays the identical workload on every run
DEFAULT_SEED = 13


def bench_mul(n: int, q: int, reps: int, seed: int = DEFAULT_SEED) -> dict:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, q, size=n, dtype=np.int64)
    b = rng.integers(0, q, size=n, dtype=np.int64)

    ref = RingContext(n, q, backend="reference")
    vec = RingContext(n, q, backend="vectorized")

    t_ref = _time(lambda: _fresh(ref, a) * _fresh(ref, b), reps)
    t_vec = _time(lambda: _fresh(vec, a) * _fresh(vec, b), reps)

    # Cached: the database operand keeps its forward transforms, the
    # query operand is fresh each time — the serving inner-loop shape.
    db_poly = vec.make(a)
    _ = db_poly * vec.make(b)  # warm the cache
    t_cached = _time(lambda: db_poly * _fresh(vec, b), reps)

    assert np.array_equal(
        (_fresh(ref, a) * _fresh(ref, b)).coeffs,
        (db_poly * _fresh(vec, b)).coeffs,
    ), "backends diverged — run tests/he/test_backend_parity.py"
    return {
        "n": n,
        "reference_ms": t_ref * 1e3,
        "vectorized_ms": t_vec * 1e3,
        "vectorized_cached_ms": t_cached * 1e3,
        "speedup": t_ref / t_vec,
        "speedup_cached": t_ref / t_cached,
    }


#: the small product's gate against the general 3-limb one at paper()
#: (measured 3.9x on the 2-CPU reference host; below 2x the FFT path is
#: not what ran)
SMALL_PRODUCT_GATE = 2.0


def bench_ternary(n: int, q: int, reps: int, seed: int = DEFAULT_SEED) -> dict:
    """Cached ``[0, q)`` operand times a fresh ternary one: the general
    product against the FFT one sized to the ternary bound."""
    rng = np.random.default_rng(seed + 3)
    ring = RingContext(n, q, backend="vectorized")
    pk = ring.random_uniform(rng)
    u = (rng.integers(-1, 2, size=n, dtype=np.int64)) % q
    want = pk * _fresh(ring, u)
    assert pk.mul_by_small(_fresh(ring, u)) == want, (
        "ternary product diverged — run tests/he/test_backend_parity.py"
    )
    backend = ring.backend
    bits, pieces = backend.fft.plan(1)
    # best of many: each call is a fraction of a millisecond
    t_general = _time(lambda: pk * _fresh(ring, u), 20 * reps)
    t_ternary = _time(lambda: pk.mul_by_small(_fresh(ring, u)), 20 * reps)
    return {
        "n": n,
        "general_limbs": len(backend.basis.primes),
        "pieces": f"{pieces} x {bits} bit",
        "general_ms": t_general * 1e3,
        "ternary_ms": t_ternary * 1e3,
        "speedup": t_general / t_ternary,
    }


def bench_kernels(n: int, reps: int, seed: int = DEFAULT_SEED) -> list[dict]:
    rng = np.random.default_rng(seed + 1)
    coeffs = rng.integers(0, WIDE_Q, size=n, dtype=np.int64)
    scalar = WIDE_Q - 7
    rows = []
    for op, call in [
        ("scalar_mul (41-bit q)", lambda p: p.scalar_mul(scalar)),
        ("automorphism k=3", lambda p: p.automorphism(3)),
    ]:
        ref_p = RingContext(n, WIDE_Q, backend="reference").make(coeffs)
        vec_p = RingContext(n, WIDE_Q, backend="vectorized").make(coeffs)
        t_ref = _time(lambda: call(ref_p), reps)
        t_vec = _time(lambda: call(vec_p), reps)
        rows.append(
            {
                "op": op,
                "reference_ms": t_ref * 1e3,
                "vectorized_ms": t_vec * 1e3,
                "speedup": t_ref / t_vec,
            }
        )
    return rows


def bench_serving(reps: int, seed: int = DEFAULT_SEED) -> list[dict]:
    from repro.he import BFVParams

    rng = np.random.default_rng(seed + 2)
    params = BFVParams.test_small(64)
    db = random_bits(params.n * 16 * 8, rng)
    queries = []
    for k in range(6):
        q_bits = random_bits(32, rng)
        off = 16 * (13 + 83 * k)
        db[off : off + 32] = q_bits
        queries.append(q_bits)

    rows = []
    for backend in ("reference", "vectorized"):
        engine = ShardedSearchEngine(
            ClientConfig(params, key_seed=seed + 2),
            num_shards=2,
            poly_backend=backend,
        )
        engine.outsource(db)
        best = min(
            _time(lambda: engine.search_batch(queries), 1) for _ in range(reps)
        )
        rows.append(
            {
                "backend": backend,
                "batch_seconds": best,
                "queries_per_sec": len(queries) / best,
            }
        )
    rows[1]["speedup"] = rows[0]["batch_seconds"] / rows[1]["batch_seconds"]
    return rows


def run(quick: bool, seed: int = DEFAULT_SEED) -> int:
    reps = 7 if quick else 15
    mul_rows = [bench_mul(4096, PAPER_Q, reps, seed)]
    if not quick:
        mul_rows.insert(0, bench_mul(1024, PAPER_Q, reps, seed))
        mul_rows.append(bench_mul(8192, PAPER_Q, reps, seed))

    lines = [
        format_table(
            "Negacyclic multiply, paper modulus q=2**32 (best of %d)" % reps,
            ["n", "reference_ms", "vectorized_ms", "vectorized_cached_ms",
             "speedup", "speedup_cached"],
            [
                [r["n"], f"{r['reference_ms']:.2f}", f"{r['vectorized_ms']:.2f}",
                 f"{r['vectorized_cached_ms']:.2f}", f"{r['speedup']:.1f}x",
                 f"{r['speedup_cached']:.1f}x"]
                for r in mul_rows
            ],
        ),
    ]

    ternary = bench_ternary(1024, PAPER_Q, reps, seed)
    lines += [
        "",
        format_table(
            "Cached operand x fresh ternary, n=1024 q=2**32 (best of %d)"
            % (20 * reps),
            ["n", "general limbs", "fft pieces", "general_ms",
             "small_ms", "speedup"],
            [[
                ternary["n"], ternary["general_limbs"],
                ternary["pieces"], f"{ternary['general_ms']:.3f}",
                f"{ternary['ternary_ms']:.3f}", f"{ternary['speedup']:.2f}x",
            ]],
        ),
    ]

    if not quick:
        kernel_rows = bench_kernels(4096, reps, seed)
        lines += [
            "",
            format_table(
                "Kernels at a 41-bit modulus (reference uses big-int fallback)",
                ["op", "reference_ms", "vectorized_ms", "speedup"],
                [
                    [r["op"], f"{r['reference_ms']:.3f}",
                     f"{r['vectorized_ms']:.3f}", f"{r['speedup']:.1f}x"]
                    for r in kernel_rows
                ],
            ),
        ]
        serve_rows = bench_serving(reps=2, seed=seed)
        lines += [
            "",
            format_table(
                "End-to-end serving (6-query batch, 2 shards, client decrypt)",
                ["backend", "batch_seconds", "queries_per_sec", "speedup"],
                [
                    [r["backend"], f"{r['batch_seconds']:.2f}",
                     f"{r['queries_per_sec']:.2f}",
                     f"{r.get('speedup', float('nan')):.1f}x" if "speedup" in r else "-"]
                    for r in serve_rows
                ],
            ),
        ]

    emit("bench_poly", "\n".join(lines))

    gate = mul_rows[-1] if quick else mul_rows[1]
    if gate["speedup"] <= 1.0:
        print(
            f"FAIL: vectorized backend slower than reference on n={gate['n']} "
            f"mul ({gate['speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    if ternary["speedup"] < SMALL_PRODUCT_GATE:
        print(
            f"FAIL: small product ({ternary['pieces']} FFT pieces) only "
            f"{ternary['speedup']:.2f}x the general one on "
            f"{ternary['general_limbs']} limbs (gate: {SMALL_PRODUCT_GATE}x)"
            " — the FFT product is not selected",
            file=sys.stderr,
        )
        return 1
    target = 5.0
    best = max(gate["speedup"], gate["speedup_cached"])
    status = "meets" if best >= target else "BELOW"
    print(
        f"n={gate['n']} mul speedup: {gate['speedup']:.1f}x cold, "
        f"{gate['speedup_cached']:.1f}x with cached db operand "
        f"({status} the {target}x target)"
    )
    return 0


def test_emit_poly_backend_speedup(benchmark):
    """Pytest entry point (same artifact, quick shape)."""
    benchmark(lambda: None)
    assert run(quick=True) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n=4096 multiply and the small product only; non-zero exit "
        "if vectorized is slower than reference or the small product "
        "under 2x the general one (CI gate)",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"base RNG seed (default: {DEFAULT_SEED}, pinned so the CI "
        "gate replays the identical workload every run)",
    )
    args = parser.parse_args()
    return run(quick=args.quick, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
