"""Ring-product costs on the one arithmetic ``src/`` has.

Three measurements, each between paths that exist in ``src/``:

* negacyclic multiply at the paper modulus (``q = 2**32``) across ring
  degrees, cold (both operands fresh) against cached (one operand keeps
  its forward limb transforms, as a database polynomial or a secret key
  does) — the general product behind every non-small ring multiply;
* the small-operand product at the paper's parameters (n = 1024,
  ``q = 2**32``): a cached public-key operand times a fresh ternary
  mask, on the general 3-limb basis (``*``) and as the exact float64
  FFT :meth:`~repro.he.poly.RingPoly.mul_by_small` sizes from the
  mask's checked magnitude — the product under every fresh row;
* 39 query rows at the paper's parameters: 39 public-key ``encrypt``
  calls — what database outsourcing runs per polynomial — against one
  ``encrypt_symmetric_rows`` pass over the same 39 rows under the
  secret key, what the key holder encrypts its queries with.

Runs standalone (``python benchmarks/bench_poly.py``) or under pytest.
``--quick`` restricts the multiply to n = 4096 and **exits non-zero if
the small product is not at least 2x the general one, or the 39-row
pass takes more than 0.5x the 39 public-key encryptions** — the CI
bench-smoke gates.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from _util import emit

from repro.eval.tables import format_table
from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.he.arena import unstack_ciphertext
from repro.he.poly import RingContext, RingPoly

PAPER_Q = 1 << 32


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
    ring = RingContext(n, q)

    t_cold = _time(lambda: _fresh(ring, a) * _fresh(ring, b), reps)

    # Cached: the database operand keeps its forward transforms, the
    # query operand is fresh each time — the serving inner-loop shape.
    db_poly = ring.make(a)
    _ = db_poly * ring.make(b)  # warm the cache
    t_cached = _time(lambda: db_poly * _fresh(ring, b), reps)

    assert db_poly * _fresh(ring, b) == _fresh(ring, a) * _fresh(ring, b), (
        "cached product diverged — run tests/he/test_backend_parity.py"
    )
    return {
        "n": n,
        "cold_ms": t_cold * 1e3,
        "cached_ms": t_cached * 1e3,
        "speedup_cached": t_cold / t_cached,
    }


#: the small product's gate against the general 3-limb one at paper()
#: (measured 3.9x on the 2-CPU reference host; below 2x the FFT path is
#: not what ran)
SMALL_PRODUCT_GATE = 2.0


def bench_ternary(n: int, q: int, reps: int, seed: int = DEFAULT_SEED) -> dict:
    """Cached ``[0, q)`` operand times a fresh ternary one: the general
    product against the FFT one sized to the ternary bound."""
    rng = np.random.default_rng(seed + 3)
    ring = RingContext(n, q)
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


#: one request's query rows under the secret key against as many
#: public-key encryptions (measured 0.42-0.43x on the 2-CPU reference
#: host; above 0.5x the one-pass block encryptor is not what ran)
QUERY_ROWS_GATE = 0.5
#: rows per pass, fixed so the gate compares like with like across
#: versions (a 48-bit read encrypted 39 when the gate was set; since
#: one row per variant it encrypts 33)
QUERY_ROWS = 39


def bench_query_rows(reps: int, seed: int = DEFAULT_SEED) -> dict:
    """``QUERY_ROWS`` plaintext rows at ``paper()``: one public-key
    ``encrypt`` each against one ``encrypt_symmetric_rows`` pass."""
    params = BFVParams.paper()
    ctx = BFVContext(params, seed=seed)
    keygen = KeyGenerator(params, seed=seed)
    sk = keygen.secret_key()
    pk = keygen.public_key(sk)
    rows = np.random.default_rng(seed + 5).integers(
        0, params.t, size=(QUERY_ROWS, params.n), dtype=np.int64
    )
    plaintexts = [ctx.plaintext(row) for row in rows]
    # a serving process has freed multi-MiB arrays (arena tiles, kernel
    # scratch) long before its first query, after which glibc keeps
    # freed heap instead of trimming it back at 128 KiB; a fresh
    # process has not, and the pass's 48-96 KiB transients then cost a
    # few hundred page faults per call, which this gate is not about
    np.empty(1 << 23, dtype=np.uint8).fill(0)
    block = ctx.encrypt_symmetric_rows(rows, sk)  # warms the key spectra
    for pt, row in zip(plaintexts, block):
        ct = unstack_ciphertext(ctx.ring, params, row.astype(np.int64))
        assert ctx.decrypt(ct, sk).poly == ctx.decrypt(ctx.encrypt(pt, pk), sk).poly, (
            "block row diverged — run tests/he/test_symmetric_rows.py"
        )
    # alternating, so both sides see the same host: each is a few ms
    t_public = t_block = float("inf")
    for _ in range(10 * reps):
        t_public = min(
            t_public, _time(lambda: [ctx.encrypt(pt, pk) for pt in plaintexts], 1)
        )
        t_block = min(t_block, _time(lambda: ctx.encrypt_symmetric_rows(rows, sk), 1))
    return {
        "rows": QUERY_ROWS,
        "public_ms": t_public * 1e3,
        "block_ms": t_block * 1e3,
        "ratio": t_block / t_public,
    }


def run(quick: bool, seed: int = DEFAULT_SEED) -> int:
    reps = 7 if quick else 15
    degrees = [4096] if quick else [1024, 4096, 8192]
    mul_rows = [bench_mul(n, PAPER_Q, reps, seed) for n in degrees]
    ternary = bench_ternary(1024, PAPER_Q, reps, seed)
    query = bench_query_rows(reps, seed)

    lines = [
        format_table(
            "Negacyclic multiply, paper modulus q=2**32 (best of %d)" % reps,
            ["n", "cold_ms", "cached_ms", "speedup_cached"],
            [
                [r["n"], f"{r['cold_ms']:.2f}", f"{r['cached_ms']:.2f}",
                 f"{r['speedup_cached']:.2f}x"]
                for r in mul_rows
            ],
        ),
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
        "",
        format_table(
            "One request's query rows, n=1024 q=2**32 (best of %d)" % (10 * reps),
            ["rows", "public-key encrypt x rows, ms",
             "encrypt_symmetric_rows, ms", "ratio"],
            [[
                query["rows"], f"{query['public_ms']:.2f}",
                f"{query['block_ms']:.2f}", f"{query['ratio']:.2f}x",
            ]],
        ),
    ]
    emit("bench_poly", "\n".join(lines))

    if ternary["speedup"] < SMALL_PRODUCT_GATE:
        print(
            f"FAIL: small product ({ternary['pieces']} FFT pieces) only "
            f"{ternary['speedup']:.2f}x the general one on "
            f"{ternary['general_limbs']} limbs (gate: {SMALL_PRODUCT_GATE}x)"
            " — the FFT product is not selected",
            file=sys.stderr,
        )
        return 1
    print(
        f"small product {ternary['speedup']:.2f}x the general one "
        f"(gate: {SMALL_PRODUCT_GATE}x)"
    )
    if query["ratio"] > QUERY_ROWS_GATE:
        print(
            f"FAIL: {query['rows']} query rows in one pass under the secret "
            f"key took {query['ratio']:.2f}x the time of {query['rows']} "
            f"public-key encryptions (gate: {QUERY_ROWS_GATE}x)",
            file=sys.stderr,
        )
        return 1
    print(
        f"{query['rows']} query rows in one pass: {query['ratio']:.2f}x the "
        f"time of {query['rows']} public-key encryptions "
        f"(gate: {QUERY_ROWS_GATE}x)"
    )
    return 0


def test_emit_poly_product_costs(benchmark):
    """Pytest entry point (same artifact, quick shape)."""
    benchmark(lambda: None)
    assert run(quick=True) == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n=4096 multiply, the small product and the query rows only; "
        "non-zero exit if the small product is under 2x the general one or "
        "the one-pass query rows over 0.5x the public-key ones (CI gates)",
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
