"""The key holder's query encryption — ``encrypt_symmetric_rows``: a
block of plaintext rows under the secret key, ``c1 = a`` uniform,
``phase = delta * m - e``, ``c0 = phase - a * s``, in tiles of
``_SYMMETRIC_TILE_ROWS`` rows.  Ciphertext bits are new in this form, so
the discipline is oracle equality (the reference arithmetic from the
same RNG state), exact ``phase == c0 + c1 * s``, decryption to the
plaintext, and the noise bound."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.he import bfv as bfv_module
from repro.he.arena import unstack_ciphertext
from repro.he.noise import NoiseBounds
from repro.he.poly import RingPoly
from tests.oracles import (
    ARITHMETIC,
    count_transforms,
    encrypt_symmetric,
    noise_budget_bits,
)

TILE = bfv_module._SYMMETRIC_TILE_ROWS

PARAM_SETS = {
    "test_small": lambda: BFVParams.test_small(64),
    "paper": BFVParams.paper,
    "odd_q": lambda: BFVParams(n=128, q=(1 << 40) - 87, t=1 << 16, name="odd"),
}

_ENDPOINTS = {}


def _endpoint(name, arithmetic="vectorized", seed=11):
    """Context + secret key per parameter set; the keys are built once
    (hypothesis reruns the body), the context per call."""
    params = PARAM_SETS[name]()
    key = (name, arithmetic)
    if key not in _ENDPOINTS:
        keygen = ARITHMETIC[arithmetic](KeyGenerator(params, seed=seed))
        _ENDPOINTS[key] = keygen.secret_key()
    return ARITHMETIC[arithmetic](BFVContext(params, seed=seed)), _ENDPOINTS[key]


def _ciphertext(ctx, row):
    return unstack_ciphertext(ctx.ring, ctx.params, row[:2].astype(np.int64))


@pytest.mark.parametrize("name", ["test_small", "paper"])
@settings(max_examples=12, deadline=None)
@given(rows=st.sampled_from([1, 5, 39]), seed=st.integers(0, 2**32 - 1))
def test_every_row_of_a_block_decrypts_and_carries_its_exact_phase(name, rows, seed):
    """Blocks of 1 / 5 / 39 rows — inside one tile, and across four
    tile boundaries: every row is a ciphertext of its plaintext under
    ``sk``, and its phase row equals ``ctx.phase(ct, sk)`` exactly."""
    assert 5 < TILE < 39 and 39 % TILE  # boundaries fall inside the block
    ctx, sk = _endpoint(name)
    params = ctx.params
    plain = np.random.default_rng(seed).integers(
        0, params.t, size=(rows, params.n), dtype=np.int64
    )
    before = ctx.counter.encryptions
    block = ctx.encrypt_symmetric_rows(plain, sk)
    assert ctx.counter.encryptions == before + rows
    assert block.shape == (rows, 3, params.n)
    assert block.dtype == np.uint32  # q = 2**32: the narrowest that holds it
    for row, want in zip(block, plain):
        ct = _ciphertext(ctx, row)
        assert np.array_equal(ctx.phase(ct, sk).coeffs, row[2])
        assert np.array_equal(ctx.decrypt(ct, sk).poly.coeffs, want)
        assert ctx.noise_residual(ct, sk) <= NoiseBounds(params).fresh_symmetric


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_block_equals_the_reference_arithmetic_from_the_same_draws(name):
    """Oracle equality: the big-int reference ring, same seed — the
    same ``(R, 3, n)`` block bit for bit, written out as the textbook
    ``c0 = -(a s) - e + delta m`` on the reference's polynomials."""
    vec, vec_sk = _endpoint(name)
    ref, ref_sk = _endpoint(name, "reference")
    assert vec_sk.s == ref_sk.s
    params = vec.params
    rows = TILE + 3
    plain = np.random.default_rng(5).integers(
        0, params.t, size=(rows, params.n), dtype=np.int64
    )
    got = vec.encrypt_symmetric_rows(plain, vec_sk)
    want = ref.encrypt_symmetric_rows(plain, ref_sk)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # ... and spelled out from the draws, tile by tile: a, then e
    rng = np.random.default_rng(11)
    ring = ref.ring
    for r0 in range(0, rows, TILE):
        count = min(TILE, rows - r0)
        a = rng.integers(0, params.q, size=(count, params.n), dtype=np.int64)
        e = np.rint(rng.normal(0.0, params.sigma, size=(count, params.n)))
        for i in range(count):
            a_poly = RingPoly(ring, a[i])
            scaled = ring.make(plain[r0 + i]).scalar_mul(params.delta)
            c0 = -(a_poly * ref_sk.s) - ring.make(e[i].astype(np.int64)) + scaled
            assert np.array_equal(got[r0 + i, 0], c0.coeffs)
            assert np.array_equal(got[r0 + i, 1], a[i])
            assert np.array_equal(got[r0 + i, 2], (c0 + a_poly * ref_sk.s).coeffs)


def test_encrypt_symmetric_is_the_one_row_call():
    """One symmetric encryptor: ``encrypt_symmetric(pt, sk)`` draws and
    returns what the first row of a one-row block holds."""
    one, sk = _endpoint("paper")
    block, _ = _endpoint("paper")
    coeffs = np.arange(one.params.n) % one.params.t
    for _ in range(2):
        ct = encrypt_symmetric(one, one.plaintext(coeffs), sk)
        row = block.encrypt_symmetric_rows(coeffs[None], sk)[0]
        assert ct == _ciphertext(block, row)
        assert ct.c0.coeffs.dtype == np.int64
    assert one.counter.encryptions == block.counter.encryptions == 2


def test_a_pass_runs_transforms_shaped_by_rows_and_n_only():
    """2 forward + 2 inverse half-size FFTs per row (``a`` in two
    16-bit pieces against the cached spectrum of ``s``), a tile at a
    time; no Gaussian row is ever transformed, and the message changes
    nothing."""
    ctx, sk = _endpoint("paper")
    n = ctx.params.n
    ctx.encrypt_symmetric_rows(np.zeros((1, n), dtype=np.int64), sk)
    seen = []
    for fill in (0, ctx.params.t - 1):
        with count_transforms() as calls:
            ctx.encrypt_symmetric_rows(np.full((TILE + 2, n), fill), sk)
        seen.append(calls)
    assert seen[0] == seen[1] == [
        ("SmallProductFft", "forward", 1, (TILE, 2, n)),
        ("SmallProductFft", "inverse", 1, (TILE, 2, n // 2)),
        ("SmallProductFft", "forward", 1, (2, 2, n)),
        ("SmallProductFft", "inverse", 1, (2, 2, n // 2)),
    ]


def test_a_key_that_is_not_small_takes_the_general_product():
    """The piece width follows the *checked* magnitude of ``s``: a
    uniform "secret key" multiplies on the limb basis, same identity."""
    ctx, sk = _endpoint("paper")
    big = type(sk)(ctx.params, ctx.ring.random_uniform(np.random.default_rng(3)))
    plain = np.random.default_rng(4).integers(
        0, ctx.params.t, size=(3, ctx.params.n), dtype=np.int64
    )
    with count_transforms() as calls:
        block = ctx.encrypt_symmetric_rows(plain, big)
    assert calls and {call[0] for call in calls} == {"_FourStepNtt"}
    for row in block:
        ct = _ciphertext(ctx, row)
        assert np.array_equal((ct.c0 + ct.c1 * big.s).coeffs, row[2])


def test_plaintext_rows_are_checked():
    ctx, sk = _endpoint("test_small")
    n, t = ctx.params.n, ctx.params.t
    with pytest.raises(ValueError, match="plaintext rows"):
        ctx.encrypt_symmetric_rows(np.zeros(n, dtype=np.int64), sk)
    with pytest.raises(ValueError, match="plaintext rows"):
        ctx.encrypt_symmetric_rows(np.zeros((2, n + 1), dtype=np.int64), sk)
    for bad in (-1, t):
        rows = np.zeros((2, n), dtype=np.int64)
        rows[1, 3] = bad
        with pytest.raises(ValueError, match=r"\[0, "):
            ctx.encrypt_symmetric_rows(rows, sk)
    before = ctx.counter.encryptions
    empty = ctx.encrypt_symmetric_rows(np.zeros((0, n), dtype=np.int64), sk)
    assert empty.shape == (0, 3, n) and ctx.counter.encryptions == before


def test_hom_add_of_a_database_row_and_a_query_row_stays_under_the_bounds():
    """The margin the ``uint32`` wrapping kernel leans on, at
    ``paper()``: a symmetric query row stays under ``b_err``, a
    public-key database row under ``fresh``, their Hom-Add under the
    sum — and the sum is below ``delta / 2``."""
    params = BFVParams.paper()
    ctx, sk = _endpoint("paper")
    pk = KeyGenerator(params, seed=12).public_key(sk)
    bounds = NoiseBounds(params)
    assert bounds.fresh_symmetric == bounds.b_err == 6 * params.sigma
    assert bounds.fresh + bounds.fresh_symmetric < bounds.failure_threshold
    rng = np.random.default_rng(8)
    worst_query = worst_sum = 0
    for _ in range(4):
        db_plain, q_plain = rng.integers(0, params.t // 2, size=(2, params.n))
        db_ct = ctx.encrypt(ctx.plaintext(db_plain), pk)
        query = ctx.encrypt_symmetric_rows(q_plain[None], sk)
        query_ct = _ciphertext(ctx, query[0])
        total = ctx.add(db_ct, query_ct)
        assert np.array_equal(ctx.decrypt(total, sk).poly.coeffs, db_plain + q_plain)
        worst_query = max(worst_query, ctx.noise_residual(query_ct, sk))
        worst_sum = max(worst_sum, ctx.noise_residual(total, sk))
        assert ctx.noise_residual(db_ct, sk) <= bounds.fresh
    assert 0 < worst_query <= bounds.fresh_symmetric
    assert worst_query < worst_sum <= bounds.fresh + bounds.fresh_symmetric
    # a query row's budget: log2((delta / 2) / noise), ~11.5 bits here
    assert noise_budget_bits(ctx, query_ct, sk) > 10
