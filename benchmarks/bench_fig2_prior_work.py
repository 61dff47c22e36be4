"""Figure 2 (+ the §3.1 quantitative comparison): prior-work footprint,
execution time and latency breakdown — functional measurements at small
scale plus the model's footprint table."""

import time

import numpy as np
import pytest

from _util import emit
from repro.baselines import BooleanMatcher, YasudaMatcher, find_all_matches
from repro.core import ClientConfig, SecureStringMatchPipeline
from repro.eval.experiments import figure2a, figure2c
from repro.eval import format_table
from repro.he import BFVParams, generate_keys
from repro.utils.bits import random_bits

RNG = np.random.default_rng(7)


def test_emit_fig2a_footprint(benchmark):
    emit("figure2a", figure2a())
    benchmark(figure2a)


def test_emit_fig2c_breakdown(benchmark):
    emit("figure2c", figure2c())
    benchmark(figure2c)


def test_boolean_matcher_small_db(benchmark, bool_setup=None):
    """Functional Boolean-approach search on a tiny database — the
    §3.1 observation that even 32 bytes take seconds under per-bit HE."""
    params = BFVParams.boolean_baseline(n=128)
    matcher = BooleanMatcher(params, seed=1)
    sk, pk, rlk = generate_keys(params, seed=1, relin=True)
    db_bits = random_bits(24, RNG)
    q = db_bits[4:10].copy()
    enc = matcher.encrypt_database(db_bits, pk)
    result = benchmark(matcher.search, enc, q, pk, sk, rlk)
    assert result == find_all_matches(db_bits, q)


def test_arithmetic_matcher_small_db(benchmark):
    """Functional arithmetic-approach (2 Hom-Mult + 3 Hom-Add) search."""
    params = BFVParams.arithmetic_baseline(n=256, t=1024)
    matcher = YasudaMatcher(params, max_query_bits=32, seed=2)
    sk, pk, rlk = generate_keys(params, seed=2, relin=True)
    db_bits = random_bits(256, RNG)
    q = db_bits[64:96].copy()
    enc = matcher.encrypt_database(db_bits, pk)
    result = benchmark(matcher.search, enc, q, pk, sk, rlk)
    assert result == find_all_matches(db_bits, q)


def test_ciphermatch_sw_small_db(benchmark):
    """Functional CM-SW (Hom-Add only) search on the same scale."""
    pipe = SecureStringMatchPipeline(
        ClientConfig(BFVParams.test_small(64), key_seed=3)
    )
    db_bits = random_bits(1024, RNG)
    q = db_bits[256:288].copy()
    pipe.outsource_database(db_bits)
    report = benchmark(pipe.search, q)
    assert 256 in report.matches


def test_emit_fig2b_measured_comparison(benchmark):
    """Measure the three matchers' execution time on equal work and
    print the §3.1-style comparison (the 600x-class Boolean/arithmetic
    gap emerges from the functional implementations)."""
    rows = []

    # Boolean: 24-bit db, 6-bit query (per-bit ciphertexts are costly)
    params_b = BFVParams.boolean_baseline(n=128)
    mb = BooleanMatcher(params_b, seed=4)
    skb, pkb, rlkb = generate_keys(params_b, seed=4, relin=True)
    db_b = random_bits(24, RNG)
    enc_b = mb.encrypt_database(db_b, pkb)
    t0 = time.perf_counter()
    mb.search(enc_b, db_b[2:8].copy(), pkb, skb, rlkb)
    bool_time = time.perf_counter() - t0
    bool_per_bit = bool_time / 24

    # Arithmetic: 256-bit db
    params_a = BFVParams.arithmetic_baseline(n=256, t=1024)
    ma = YasudaMatcher(params_a, max_query_bits=32, seed=5)
    ska, pka, rlka = generate_keys(params_a, seed=5, relin=True)
    db_a = random_bits(256, RNG)
    enc_a = ma.encrypt_database(db_a, pka)
    t0 = time.perf_counter()
    ma.search(enc_a, db_a[32:64].copy(), pka, ska, rlka)
    arith_time = time.perf_counter() - t0
    arith_per_bit = arith_time / 256

    # CM-SW: 1024-bit db
    pipe = SecureStringMatchPipeline(ClientConfig(BFVParams.test_small(64), key_seed=6))
    db_c = random_bits(1024, RNG)
    pipe.outsource_database(db_c)
    t0 = time.perf_counter()
    pipe.search(db_c[128:160].copy())
    cm_time = time.perf_counter() - t0
    cm_per_bit = cm_time / 1024

    rows = [
        ["Boolean [17]", f"{bool_time*1e3:.1f}", f"{bool_per_bit*1e6:.1f}"],
        ["Arithmetic [27]", f"{arith_time*1e3:.1f}", f"{arith_per_bit*1e6:.1f}"],
        ["CM-SW (ours)", f"{cm_time*1e3:.1f}", f"{cm_per_bit*1e6:.1f}"],
    ]
    table = format_table(
        "Figure 2b (functional, this machine): search time by approach",
        ["approach", "total ms", "us per db-bit"],
        rows,
        paper_note="Boolean >> arithmetic >> CM-SW per database bit; paper "
        "measures 600x Boolean/arithmetic gap on SEAL/TFHE-rs",
    )
    emit("figure2b_measured", table)
    assert bool_per_bit > arith_per_bit > cm_per_bit
    benchmark(lambda: None)
