"""Ablation: add-only matching vs Hamming-distance (mult-based) matching.

Measures, on this machine's BFV implementation, the per-block cost of
CIPHERMATCH's Hom-Add search versus the arithmetic baseline's
2-mult/3-add circuit — the design decision behind Key Takeaway 1.
"""

import time

import numpy as np
import pytest

from _util import emit
from repro.baselines import YasudaMatcher
from repro.eval import format_table
from repro.he import BFVContext, BFVParams, generate_keys
from repro.utils.bits import random_bits

RNG = np.random.default_rng(3)


@pytest.fixture(scope="module")
def arith_setup():
    params = BFVParams.arithmetic_baseline(n=256, t=1024)
    matcher = YasudaMatcher(params, max_query_bits=32, seed=8)
    sk, pk, rlk = generate_keys(params, seed=8, relin=True)
    db_ct = matcher.encrypt_database(random_bits(200, RNG), pk).ciphertexts[0]
    q_ct, mask_ct, y = matcher.encrypt_query(random_bits(32, RNG), pk)
    return matcher, db_ct, q_ct, mask_ct, y, rlk


@pytest.fixture(scope="module")
def add_setup():
    params = BFVParams.arithmetic_baseline(n=256, t=1024)
    ctx = BFVContext(params, seed=9)
    _, pk, _ = generate_keys(params, seed=9)
    m = np.arange(256) % params.t
    ct1 = ctx.encrypt(ctx.plaintext(m), pk)
    ct2 = ctx.encrypt(ctx.plaintext(m), pk)
    return ctx, ct1, ct2


def test_hamming_distance_circuit(benchmark, arith_setup):
    matcher, db_ct, q_ct, mask_ct, y, rlk = arith_setup
    benchmark(
        matcher.hamming_ciphertext, db_ct, q_ct, mask_ct, 16, y, rlk
    )


def test_hom_add_only(benchmark, add_setup):
    ctx, ct1, ct2 = add_setup
    benchmark(ctx.add, ct1, ct2)


def test_emit_addonly_ablation(benchmark, arith_setup, add_setup):
    matcher, db_ct, q_ct, mask_ct, y, rlk = arith_setup
    ctx, ct1, ct2 = add_setup

    t0 = time.perf_counter()
    for _ in range(3):
        matcher.hamming_ciphertext(db_ct, q_ct, mask_ct, 16, y, rlk)
    hd_time = (time.perf_counter() - t0) / 3

    t0 = time.perf_counter()
    for _ in range(100):
        ctx.add(ct1, ct2)
    add_time = (time.perf_counter() - t0) / 100

    # CIPHERMATCH needs 16 adds per block (one per shift variant) on
    # 16x fewer blocks; the HD circuit runs once per block.
    cm_per_block_equiv = 16 * add_time / 16.0
    ratio = hd_time / cm_per_block_equiv
    table = format_table(
        "Ablation: Hamming-distance circuit vs add-only matching (measured)",
        ["kernel", "per-block ms", "relative"],
        [
            ["2 Hom-Mult + 3 Hom-Add (HD)", hd_time * 1e3, ratio],
            ["16 Hom-Add / 16x denser packing", cm_per_block_equiv * 1e3, 1.0],
        ],
        paper_note="the mult-heavy circuit dominates (Fig 2c: 98.2% of "
        "latency is Hom-Mult); eliminating it is Key Takeaway 1",
        float_format="{:.3f}",
    )
    emit("ablation_addonly", table)
    assert hd_time > add_time * 10
    benchmark(lambda: None)
