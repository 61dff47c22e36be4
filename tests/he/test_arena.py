"""Parity of the ciphertext-arena fused kernels against the scalar path.

Every fused kernel (broadcast Hom-Add, batched NTT multiply, batch
decryption, flag extraction, phase linearity) must be *bit-for-bit*
equal to the corresponding per-object operations on both polynomial
backends.  The grid pins the structurally distinct modulus regimes;
hypothesis explores random coefficient patterns in between.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.he import arena as arena_module
from repro.he.arena import (
    CiphertextArena,
    QueryArena,
    add_mod_q,
    decrypt_batch,
    flags_batch,
    fused_decrypt_flags,
    mul_rows_by_poly,
    scale_rows_to_plaintext,
    query_row_layout,
    stack_ciphertext,
)
from repro.he.backend import get_rns_basis
from repro.he.bfv import BFVContext
from repro.he.keys import KeyGenerator
from repro.he.params import BFVParams
from repro.he.poly import RingContext
from tests.oracles import (
    ARITHMETIC,
    coefficient_pattern,
    dense_decrypt_flags,
    dense_flags,
    int64_decrypt_flags,
    paper_secure_params,
    reference_arithmetic,
    scaled_decrypt_flags,
    uint32_decrypt_flags,
)

#: modulus regimes: power-of-two (paper), native NTT prime, odd
#: composite with RNS limbs, near the 2**62 cap
MODULI = [1 << 32, 12289, (1 << 40) + 123, (1 << 62) - 57]


def _assert_hits_are(hits, dense):
    """``hits`` is the dense ``(V, P, n)`` grid's set flags: per variant
    the ascending flat indices, nothing else."""
    assert len(hits) == len(dense)
    for found, grid in zip(hits, dense):
        assert found.dtype == np.intp and found.ndim == 1
        assert np.array_equal(found, np.flatnonzero(grid))


# ---------------------------------------------------------------------------
# Low-level kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("n", [8, 64, 256])
def test_add_mod_q_matches_numpy_mod(n, q):
    rng = np.random.default_rng(n)
    a = rng.integers(0, q, size=(5, n), dtype=np.int64)
    b = rng.integers(0, q, size=(5, n), dtype=np.int64)
    assert np.array_equal(add_mod_q(a, b, q), (a + b) % q)
    # broadcast shape
    assert np.array_equal(add_mod_q(a[None], b[:, None], q), (a[None] + b[:, None]) % q)


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("backend", ["vectorized", "reference"])
@pytest.mark.parametrize("n", [64, 256])
def test_mul_rows_by_poly_matches_scalar_products(n, q, backend):
    ring = ARITHMETIC[backend](RingContext(n, q))
    rng = np.random.default_rng(q % 9973 + n)
    rows = rng.integers(0, q, size=(6, n), dtype=np.int64)
    poly = ring.make(rng.integers(0, q, size=n, dtype=np.int64))
    got = mul_rows_by_poly(ring, rows, poly)
    want = np.stack([(ring.make(r) * poly).coeffs for r in rows])
    assert np.array_equal(got, want)


def test_mul_rows_by_poly_empty():
    ring = RingContext(64, 1 << 32)
    poly = ring.make(np.arange(64))
    out = mul_rows_by_poly(ring, np.empty((0, 64), dtype=np.int64), poly)
    assert out.shape == (0, 64)


@pytest.mark.parametrize("n", [32, 128, 512])
def test_forward_batch_matches_per_row_forward(n):
    q = 1 << 32
    basis = get_rns_basis(n, q)
    rng = np.random.default_rng(n)
    rows = rng.integers(-(q // 2), q // 2, size=(4, n), dtype=np.int64)
    batch = basis.forward_batch(rows)  # limb-major: (k, m, n)
    for i, row in enumerate(rows):
        assert np.array_equal(batch[:, i], basis.forward(row))


@given(st.integers(0, 2**62 - 58), st.integers(0, 2**62 - 58))
@settings(max_examples=30, deadline=None)
def test_scale_rows_matches_bfv_scaling(c0, c1):
    """The vectorized plaintext scaling equals BFVContext's on the
    centered phase, including the big-int fallback regime."""
    for q, t in [(1 << 32, 1 << 16), ((1 << 62) - 57, 1 << 16)]:
        phase = np.array([[c0 % q, c1 % q]], dtype=np.int64)
        half = q // 2
        centered = np.where(phase > half, phase - q, phase)
        got = scale_rows_to_plaintext(centered, q, t)
        want = [(t * int(c) + q // 2) // q % t for c in centered[0]]
        assert got.tolist() == [want]


# ---------------------------------------------------------------------------
# Arena vs object-path ciphertext operations
# ---------------------------------------------------------------------------


def _setup(n=64, seed=11, backend="vectorized"):
    params = BFVParams.test_small(n)
    ctx = ARITHMETIC[backend](BFVContext(params, seed=seed))
    keygen = ARITHMETIC[backend](KeyGenerator(params, seed))
    sk = keygen.secret_key()
    pk = keygen.public_key(sk)
    rng = np.random.default_rng(seed)
    pts = [
        ctx.plaintext(rng.integers(0, params.t, size=n, dtype=np.int64))
        for _ in range(5)
    ]
    cts = [ctx.encrypt(pt, pk) for pt in pts]
    return params, ctx, sk, pk, cts


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
def test_hom_add_broadcast_matches_ctx_add(backend):
    params, ctx, sk, pk, cts = _setup(backend=backend)
    arena = CiphertextArena.from_ciphertexts(ctx.ring, params, cts)
    rng = np.random.default_rng(3)
    q_cts = [
        ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, size=64)), pk)
        for _ in range(3)
    ]
    stack = np.stack([stack_ciphertext(ct) for ct in q_cts])
    grid = arena.hom_add_broadcast(stack)
    assert grid.shape == (3, len(cts), 2, 64)
    for v, q_ct in enumerate(q_cts):
        for j, db_ct in enumerate(cts):
            expect = ctx.add(db_ct, q_ct)
            assert np.array_equal(grid[v, j, 0], expect.c0.coeffs)
            assert np.array_equal(grid[v, j, 1], expect.c1.coeffs)
    # single-row form
    one = arena.hom_add_broadcast(stack[0])
    assert np.array_equal(one, grid[0])


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
def test_decrypt_batch_matches_ctx_decrypt(backend):
    params, ctx, sk, pk, cts = _setup(backend=backend)
    arena = CiphertextArena.from_ciphertexts(ctx.ring, params, cts)
    dec = decrypt_batch(ctx.ring, params, arena.c0_rows(), arena.stack[:, 1], sk)
    for j, ct in enumerate(cts):
        assert np.array_equal(dec[j], ctx.decrypt(ct, sk).poly.coeffs)
    flags = flags_batch(dec, chunk_width=16)
    want = dec == (1 << 16) - 1
    assert np.array_equal(flags, want)


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
def test_phase_linearity_equals_result_decryption(backend):
    """phase(db) + phase(query) mod q decrypts the Hom-Add result —
    the identity the fused decrypt kernel rides."""
    params, ctx, sk, pk, cts = _setup(backend=backend)
    arena = CiphertextArena.from_ciphertexts(ctx.ring, params, cts)
    rng = np.random.default_rng(4)
    q_ct = ctx.encrypt(ctx.plaintext(rng.integers(0, params.t, size=64)), pk)
    q_row = stack_ciphertext(q_ct)[None]
    q_phase = add_mod_q(
        q_row[:, 0], mul_rows_by_poly(ctx.ring, q_row[:, 1], sk.s), params.q
    )
    row_map = np.zeros((1, len(cts)), dtype=np.intp)
    hits = fused_decrypt_flags(
        arena.phases(sk), q_phase, row_map, params, chunk_width=16
    )
    want = np.stack(
        [
            ctx.decrypt(ctx.add(db_ct, q_ct), sk).poly.coeffs == (1 << 16) - 1
            for db_ct in cts
        ]
    )
    _assert_hits_are(hits, want[None])


# ---------------------------------------------------------------------------
# Index generation as a range test vs plaintext scaling
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "q, t", [(256, 16), (257, 16), (1000, 8), (4096, 64), (65537, 256)]
)
def test_fused_flags_exhaustive_over_small_moduli(q, t):
    """Every phase in [0, q) against a spread of query phases — every
    sum with and without a wrap past q — for every chunk width the
    plaintext modulus admits, on power-of-two and odd moduli.  The rows
    are q coefficients long, so the two polynomials are one scratch tile
    at the small moduli and one tile each at 65537."""
    params = BFVParams(n=4, q=q, t=t, name="exhaustive")
    rng = np.random.default_rng(q)
    every = np.arange(q, dtype=np.int64)
    db_phases = np.stack([every, every[::-1]])
    spread = [0, 1, q // 3, q // 2, q - 2, q - 1]
    query_phases = np.stack(
        [np.full(q, c, dtype=np.int64) for c in spread]
        + [rng.integers(0, q, size=q, dtype=np.int64)]
    )
    rows = np.arange(len(query_phases), dtype=np.intp)
    # both polynomials on one query row, and on two different ones
    row_map = np.concatenate(
        [np.stack([rows, rows], axis=1), np.stack([rows, rows[::-1]], axis=1)]
    )
    widths = [w for w in range(1, 17) if (1 << w) - 1 < t]
    assert widths
    for w in widths:
        got = fused_decrypt_flags(db_phases, query_phases, row_map, params, w)
        want = scaled_decrypt_flags(db_phases, query_phases, row_map, params, w)
        assert want.any()
        _assert_hits_are(got, want)
        for oracle in (dense_decrypt_flags, int64_decrypt_flags):
            assert np.array_equal(
                oracle(db_phases, query_phases, row_map, params, w), want
            )


@pytest.mark.parametrize(
    "make_params", [BFVParams.paper, paper_secure_params], ids=["paper", "paper_secure"]
)
def test_fused_flags_on_the_interval_edges_at_paper_moduli(make_params):
    """Sums planted exactly on ``lo - 1, lo, hi - 1, hi`` and across the
    ``q - 1 -> 0`` wrap at the paper's power-of-two modulus and at the
    54-bit prime one (where plaintext scaling overflows int64), through
    one-query-row variants and gathered ones.  At ``q = 2**32`` the
    kernel that runs is the high-half screen — handed int64 rows
    (narrowed on entry) and ``uint32`` rows (streamed as they are) — and
    the ``uint32`` and int64 bodies it replaced there are references."""
    params = make_params()
    q, t, w = params.q, params.t, 16
    match = (1 << w) - 1

    def scales_to_match(p):
        c = p - q if p > q // 2 else p
        return (t * c + q // 2) // q % t == match

    lo = -(-(match * q - q // 2) // t)
    hi = -(-((match + 1) * q - q // 2) // t)
    targets = [lo - 1, lo, hi - 1, hi, q - 1, 0, 1, q // 2, q // 2 + 1]
    expected = [False, True, True, False, False, False, False, False, False]
    assert [scales_to_match(p) for p in targets] == expected

    num_polys, cols = 4, 36
    rng = np.random.default_rng(params.n)
    db_phases = rng.integers(0, q, size=(num_polys, cols), dtype=np.int64)
    planted = np.resize(np.array(targets, dtype=np.int64), cols)
    # query row r is planted against database polynomial r; rows 4 and 5
    # are random, so their sums wrap past q about half the time
    query_phases = np.concatenate(
        [
            (planted - db_phases) % q,
            rng.integers(0, q, size=(2, cols), dtype=np.int64),
        ]
    )
    row_map = np.array(
        [[0, 0, 0, 0], [0, 1, 2, 3], [4, 4, 4, 4], [5, 4, 1, 1]], dtype=np.intp
    )
    hits = fused_decrypt_flags(db_phases, query_phases, row_map, params, w)
    want = scaled_decrypt_flags(db_phases, query_phases, row_map, params, w)
    _assert_hits_are(hits, want)
    for oracle in (dense_decrypt_flags, int64_decrypt_flags):
        assert np.array_equal(
            oracle(db_phases, query_phases, row_map, params, w), want
        )
    if q == 1 << 32:
        narrow = (db_phases.astype(np.uint32), query_phases.astype(np.uint32))
        _assert_hits_are(
            fused_decrypt_flags(*narrow, row_map, params, w), want
        )
        _assert_hits_are(uint32_decrypt_flags(*narrow, row_map, params, w), want)
        assert np.array_equal(
            dense_decrypt_flags(*narrow, row_map, params, w), want
        )
    got = dense_flags(hits, num_polys, cols)
    on_edges = np.resize(np.array(expected), cols)
    assert np.array_equal(got[0, 0], on_edges)
    for j in range(num_polys):
        assert np.array_equal(got[1, j], on_edges)


@pytest.mark.parametrize(
    "q, t, dtype",
    [
        (1 << 32, 1 << 16, np.uint32),
        (1 << 32, 1 << 16, np.int64),
        (1 << 40, 1 << 16, np.int64),
        ((1 << 40) + 123, 1 << 16, np.int64),
        (4099, 4, np.int64),
    ],
)
def test_fused_flags_equal_the_dense_kernel_at_every_tile_split(
    monkeypatch, q, t, dtype
):
    """The three modulus bodies against the dense kernel they were,
    with the scratch tile shrunk so that it holds every polynomial, a
    divisor of them, a non-divisor (short last tile) and a single one —
    on one-row variants and gathered ones, hits present in every tile
    (t = 4) and in almost none (t = 2**16)."""
    from repro.he import arena as arena_module

    n, w = 16, 1
    params = BFVParams(n=n, q=q, t=t, name="tiles")
    rng = np.random.default_rng(q % 1009)
    for num_polys in (0, 1, 5, 8):
        db_phases = rng.integers(0, q, size=(num_polys, n), dtype=np.int64)
        query_phases = rng.integers(0, q, size=(6, n), dtype=np.int64)
        row_map = rng.integers(0, 6, size=(4, num_polys)).astype(np.intp)
        row_map[::2] = row_map[::2, :1]
        if dtype is np.uint32:
            db_phases = db_phases.astype(np.uint32)
            query_phases = query_phases.astype(np.uint32)
        want = dense_decrypt_flags(db_phases, query_phases, row_map, params, w)
        assert want.shape == (4, num_polys, n)
        for tile_polys in (1, 2, 3, 8, 100):
            monkeypatch.setattr(arena_module, "_FLAG_TILE_CELLS", tile_polys * n)
            _assert_hits_are(
                fused_decrypt_flags(db_phases, query_phases, row_map, params, w),
                want,
            )
    assert t > 4 or want.mean() > 0.1


def test_fused_flags_reject_what_the_range_test_cannot_hold():
    phases = np.zeros((1, 4), dtype=np.int64)
    row_map = np.zeros((1, 1), dtype=np.intp)
    paper = BFVParams.test_small(4)
    with pytest.raises(ValueError, match="match value"):
        fused_decrypt_flags(phases, phases, row_map, paper, chunk_width=17)
    wide = BFVParams(n=4, q=(1 << 62) + 1, t=1 << 16, name="wide")
    with pytest.raises(ValueError, match="2\\*\\*63"):
        fused_decrypt_flags(phases, phases, row_map, wide, chunk_width=16)
    with pytest.raises(IndexError):
        fused_decrypt_flags(phases, phases, row_map + 1, paper, chunk_width=16)
    narrow = phases.astype(np.uint32)
    with pytest.raises(IndexError):
        fused_decrypt_flags(narrow, narrow, row_map + 1, paper, chunk_width=16)
    # the element type and the modulus must agree: uint32 rows are the
    # q = 2**32 form, anything else holds values in [0, q)
    odd = BFVParams(n=4, q=(1 << 32) - 5, t=1 << 16, name="odd")
    for db_rows, query_rows in ((narrow, phases), (phases, narrow)):
        with pytest.raises(ValueError, match="uint32"):
            fused_decrypt_flags(db_rows, query_rows, row_map, odd, chunk_width=16)
    for params in (paper, odd):
        for bad in (-1, params.q):
            outside = np.full((1, 4), bad, dtype=np.int64)
            with pytest.raises(ValueError, match=r"\[0, q\)"):
                fused_decrypt_flags(outside, phases, row_map, params, chunk_width=16)
            with pytest.raises(ValueError, match=r"\[0, q\)"):
                fused_decrypt_flags(phases, outside, row_map, params, chunk_width=16)


# ---------------------------------------------------------------------------
# The q = 2**32 high-half screen against the kernels it replaced
# ---------------------------------------------------------------------------


def _window(q, t, w):
    """``(lo, width)`` of the range test for chunk width ``w``."""
    match = (1 << w) - 1
    lo = -((q // 2 - match * q) // t)
    return lo, -((q // 2 - (match + 1) * q) // t) - lo


def _screen_case(rng, t, w, n, num_polys, num_variants, period, mode):
    """``uint32`` phases and a row map in which variant ``v`` reads row
    ``v * period + j % period`` (period 1 is a one-row variant).
    ``"near"`` plants, for every row, the sum on one cell of its first
    polynomial just inside or outside the window or the screen's
    ``(W + 2) * 2**16`` bound, or across the ``2**32`` wrap; ``"storm"``
    makes every cell of the first half of the polynomials a hit."""
    q = 1 << 32
    lo, width = _window(q, t, w)
    db = rng.integers(0, q, size=(num_polys, n), dtype=np.uint64)
    query = rng.integers(0, q, size=(num_variants * period, n), dtype=np.uint64)
    row_map = (
        np.arange(num_variants)[:, None] * period
        + np.arange(num_polys)[None, :] % period
    ).astype(np.intp)
    screen = (((width - 1) >> 16) + 2) << 16
    if mode == "near" and num_polys:
        edges = [0, width - 1, width, screen - 1, screen, q - 1, q - (1 << 16)]
        for row in range(len(query)):
            j = row % period if row % period < num_polys else 0
            c = int(rng.integers(n))
            x = (int(rng.choice(edges)) + int(rng.integers(-2, 3))) % q
            query[row, c] = (x + lo - int(db[j, c])) % q
    elif mode == "storm" and num_polys:
        db[: (num_polys + 1) // 2] = db[0]
        sums = rng.integers(0, width, size=query.shape, dtype=np.uint64)
        query = (sums + lo + q - db[0]) % q
    return db.astype(np.uint32), query.astype(np.uint32), row_map


@given(
    log_t=st.integers(2, 16),
    data=st.data(),
    n=st.sampled_from([4, 16, 64]),
    num_polys=st.integers(0, 9),
    tile_polys=st.integers(1, 4),
    num_variants=st.integers(1, 11),
    period=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(["random", "near", "storm"]),
    cap=st.sampled_from([1, 3, 64]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=150, deadline=None)
def test_hypothesis_high_half_screen_equals_both_oracles(
    log_t, data, n, num_polys, tile_polys, num_variants, period, mode, cap, seed
):
    """The screened kernel returns the hits of the ``uint32`` body it
    replaced and of the int64 body before that, for every ``t`` from 4
    to 2**16 (so ``W + 2`` from 2 to 2**14 + 1) and every chunk width it
    admits, across tile boundaries, block sizes that do not divide the
    variants, one-row and periodic row maps, near-window sums and hit
    storms, and scan caps that send some blocks to the exact test."""
    t = 1 << log_t
    w = data.draw(st.integers(1, log_t), label="chunk_width")
    params = BFVParams(n=n, q=1 << 32, t=t, name="screen")
    rng = np.random.default_rng(seed)
    db, query, row_map = _screen_case(
        rng, t, w, n, num_polys, num_variants, period, mode
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena_module, "_FLAG_TILE_CELLS", tile_polys * n)
        patch.setattr(arena_module, "_FLAG_SCAN_CAP", cap)
        hits = fused_decrypt_flags(db, query, row_map, params, w)
    dense = int64_decrypt_flags(
        db.astype(np.int64), query.astype(np.int64), row_map, params, w
    )
    _assert_hits_are(hits, dense)
    for found, old in zip(hits, uint32_decrypt_flags(db, query, row_map, params, w)):
        assert np.array_equal(found, old)
    if mode == "storm" and num_polys:
        assert all(len(found) >= n for found in hits)


class _CountingFlags(np.ndarray):
    """A view of the kernel's flag block that counts ``argmax`` scans."""

    scans = 0

    def argmax(self, *args, **kwargs):
        _CountingFlags.scans += 1
        return super().argmax(*args, **kwargs)


def test_a_hit_storm_never_scans_past_the_cap(monkeypatch):
    """Every cell a hit: the first block runs ``_FLAG_SCAN_CAP`` scans,
    then it and every later block of the call take the exact test; a
    quiet grid runs one scan per candidate and one to find the stop in
    every block, and takes the exact test nowhere."""
    n, num_polys, num_variants, tile_polys = 64, 8, 9, 3
    params = BFVParams(n=n, q=1 << 32, t=1 << 16, name="storm")
    rng = np.random.default_rng(3)
    real_find = arena_module._find_set
    per_block = []

    def counting_find(flags, end, cap):
        _CountingFlags.scans = 0
        found = real_find(flags.view(_CountingFlags), end, cap)
        per_block.append((_CountingFlags.scans, found))
        return found

    monkeypatch.setattr(arena_module, "_find_set", counting_find)
    monkeypatch.setattr(arena_module, "_FLAG_TILE_CELLS", tile_polys * n)
    cap = arena_module._FLAG_SCAN_CAP
    blocks = -(-num_polys // tile_polys) * -(-num_variants // 4)
    lo, width = _window(params.q, params.t, 16)
    for storm in (True, False):
        per_block.clear()
        db, query, row_map = _screen_case(
            rng, params.t, 16, n, num_polys, num_variants, 2, "random"
        )
        if storm:  # one database row everywhere, every sum in the window
            db[:] = db[0]
            query[:] = (lo + np.arange(n) - db[0].astype(np.int64)) % (1 << 32)
        hits = fused_decrypt_flags(db, query, row_map, params, 16)
        for found, old in zip(
            hits, uint32_decrypt_flags(db, query, row_map, params, 16)
        ):
            assert np.array_equal(found, old)
        if storm:
            assert all(len(found) == num_polys * n for found in hits)
            assert per_block == [(cap, None)]
        else:
            assert len(per_block) == blocks
            assert all(found is not None for _, found in per_block)
            assert all(scans == len(found) + 1 for scans, found in per_block)


def test_arena_phase_cache_and_slice_views():
    params, ctx, sk, pk, cts = _setup()
    arena = CiphertextArena.from_ciphertexts(ctx.ring, params, cts)
    phases = arena.phases(sk)
    assert arena.phases(sk) is phases  # cached per sk
    assert phases.dtype == np.uint32  # q = 2**32: the kernel's element type
    # a range is a view of the cached rows and of the stack, not a copy
    part = arena.phases(sk, 1, 4)
    assert part.shape == (3, params.n)
    assert part.base is phases and np.array_equal(part, phases[1:4])
    assert arena.c0_rows(1, 4).base is arena.stack
    assert np.array_equal(arena.c0_rows(1, 4), arena.stack[1:4, 0])
    assert arena.ciphertext(1) == cts[1]


def test_arena_rejects_bad_shapes():
    params, ctx, sk, pk, cts = _setup()
    with pytest.raises(ValueError):
        CiphertextArena(ctx.ring, params, np.zeros((2, 3, 64), dtype=np.int64))
    tensored = cts[0].copy()
    tensored.c2 = cts[1].c0
    with pytest.raises(ValueError):
        CiphertextArena.from_ciphertexts(ctx.ring, params, [tensored])
    with pytest.raises(ValueError):
        stack_ciphertext(tensored)


@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
@settings(max_examples=25, deadline=None)
def test_hypothesis_roundtrip_add_decrypt_flags(m_db, m_q):
    """Random plaintext pair: fused add+decrypt flags the all-ones
    coefficient exactly when the chunk sum is all-ones."""
    params, ctx, sk, pk, _ = _setup(n=16)
    db_ct = ctx.encrypt(ctx.plaintext(np.full(16, m_db, dtype=np.int64)), pk)
    q_ct = ctx.encrypt(ctx.plaintext(np.full(16, m_q, dtype=np.int64)), pk)
    arena = CiphertextArena.from_ciphertexts(ctx.ring, params, [db_ct])
    grid = arena.hom_add_broadcast(stack_ciphertext(q_ct))
    dec = decrypt_batch(ctx.ring, params, grid[:, 0], grid[:, 1], sk)
    want = ctx.decrypt(ctx.add(db_ct, q_ct), sk).poly.coeffs
    assert np.array_equal(dec[0], want)
    flags = flags_batch(dec, chunk_width=16)
    assert bool(flags[0, 0]) == ((m_db + m_q) % (1 << 16) == (1 << 16) - 1)


# ---------------------------------------------------------------------------
# Tiled broadcast add, limb-major layout, lazy build
# ---------------------------------------------------------------------------


@given(
    num_polys=st.integers(1, 9),
    num_variants=st.integers(1, 5),
    tile_bytes=st.sampled_from([1, 700, 1 << 13]),
    q_idx=st.integers(0, len(MODULI) - 1),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_hypothesis_tiled_add_parity_at_tile_boundaries(
    num_polys, num_variants, tile_bytes, q_idx, seed
):
    """The tiled broadcast add is bit-identical to the one-shot mod-add
    for every (P, V) — including P/V that are not multiples of the tile
    shape — with and without a recycled output buffer."""
    n = 16
    q = MODULI[q_idx]
    params = BFVParams(n=n, q=q, t=4, name="tile-parity")
    ring = RingContext(n, q)
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, q, size=(num_polys, 2, n), dtype=np.int64)
    q_stack = rng.integers(0, q, size=(num_variants, 2, n), dtype=np.int64)
    arena = CiphertextArena(ring, params, stack)
    want = (stack[None] + q_stack[:, None]) % q
    assert np.array_equal(
        arena.hom_add_broadcast(q_stack, tile_bytes=tile_bytes), want
    )
    out = np.empty((num_variants, num_polys, 2, n), dtype=np.int64)
    got = arena.hom_add_broadcast(q_stack, out=out, tile_bytes=tile_bytes)
    assert got is out and np.array_equal(out, want)
    row_out = np.empty((num_polys, 2, n), dtype=np.int64)
    one = arena.hom_add_broadcast(
        q_stack[0], out=row_out, tile_bytes=tile_bytes
    )
    assert one is row_out and np.array_equal(row_out, want[0])


def test_hom_add_broadcast_rejects_bad_out():
    params, ctx, sk, pk, cts = _setup()
    arena = CiphertextArena.from_ciphertexts(ctx.ring, params, cts)
    query = np.zeros((3, 2, 64), dtype=np.int64)
    with pytest.raises(ValueError):
        arena.hom_add_broadcast(
            query, out=np.zeros((2, len(cts), 2, 64), dtype=np.int64)
        )
    with pytest.raises(ValueError):
        arena.hom_add_broadcast(
            query, out=np.zeros((3, len(cts), 2, 64), dtype=np.float64)
        )
    with pytest.raises(ValueError):
        arena.hom_add_broadcast(query, tile_bytes=0)


@pytest.mark.parametrize("q", MODULI)
@pytest.mark.parametrize("n", [64, 256])
def test_forward_batch_limb_major_matches_batch_major(n, q):
    """The one batched layout left is limb-major; batch-major is the
    row-by-row transforms stacked (and what a pair of operands is
    sliced out of)."""
    basis = get_rns_basis(n, q)
    k = len(basis.primes)
    rng = np.random.default_rng(n + q % 101)
    rows = rng.integers(-(q // 2), q // 2, size=(5, n), dtype=np.int64)
    batch_major = np.stack([basis.forward(row) for row in rows])
    limb_major = basis.forward_batch(rows)
    assert limb_major.shape == (k, 5, n)
    assert np.array_equal(limb_major, np.moveaxis(batch_major, 1, 0))
    for got, want in zip(basis.forward_pair(rows[0], rows[1]), batch_major):
        assert np.array_equal(got, want)
    assert basis.forward_batch(np.empty((0, n), dtype=np.int64)).shape == (k, 0, n)


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
def test_arena_phases_are_c0_plus_the_rows_times_key_product(backend):
    """The database phase rows are ``c0 + c1 * s`` from the one
    rows-times-key product, tile by tile; the arena keeps the stack and
    the phase rows and no transform-domain copy of ``c1`` (a range reads
    the same phase rows, zero-copy)."""
    params, ctx, sk, pk, cts = _setup()
    ring = ARITHMETIC[backend](RingContext(params.n, params.q))
    arena = CiphertextArena.from_ciphertexts(ring, params, cts, build_tile=3)
    want = add_mod_q(
        arena.c0_rows(), mul_rows_by_poly(ring, arena.stack[:, 1], sk.s), params.q
    )
    reference = reference_arithmetic(RingContext(params.n, params.q))
    for j, ct in enumerate(cts):
        slow = reference.make(ct.c0.coeffs) + reference.make(
            ct.c1.coeffs
        ) * reference.make(sk.s.coeffs)
        assert np.array_equal(want[j], slow.coeffs)
    assert np.array_equal(arena.phases(sk, 1, 4), want[1:4])  # builds two tiles
    phases = arena.phases(sk)
    assert np.array_equal(phases, want)
    assert np.shares_memory(arena.phases(sk, 1, 4), phases)
    arrays = [v for v in vars(arena).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == arena.stack.nbytes + phases.nbytes


@pytest.mark.parametrize("q", MODULI)
def test_tiled_phase_build_matches_direct_computation(q):
    """Per-tile phase/limb construction (build_tile smaller than — and
    not dividing — the row count) equals the one-shot formula on every
    modulus regime."""
    n = 64
    params = BFVParams(n=n, q=q, t=4, name="phase-tiles")
    ring = RingContext(n, q)
    rng = np.random.default_rng(q % 9973)
    stack = rng.integers(0, q, size=(7, 2, n), dtype=np.int64)
    from repro.he.keys import SecretKey

    s = ring.make(rng.integers(-1, 2, size=n))
    sk = SecretKey(params, s)
    arena = CiphertextArena(ring, params, stack.copy(), build_tile=2)
    want = add_mod_q(stack[:, 0], mul_rows_by_poly(ring, stack[:, 1], s), q)
    got = arena.phases(sk)
    assert np.array_equal(got, want)
    assert got.dtype == (np.uint32 if q == 1 << 32 else np.int64)
    assert arena.phases(sk) is got  # cached per sk, identity preserved
    assert np.array_equal(arena.phases(sk, 3, 6), want[3:6])


@pytest.mark.parametrize("backend", ["vectorized", "reference"])
def test_lazy_arena_matches_eager(backend):
    params, ctx, sk, pk, cts = _setup(backend=backend)
    eager = CiphertextArena.from_ciphertexts(ctx.ring, params, cts)
    lazy = CiphertextArena.from_ciphertexts(
        ctx.ring, params, cts, lazy=True, build_tile=2
    )
    assert lazy._source is not None
    # touching a range builds only the tiles covering its rows
    assert np.array_equal(lazy.phases(sk, 1, 4), eager.phases(sk)[1:4])
    assert list(lazy._built) == [True, True, False]
    assert lazy._source is not None  # the last tile (row 4) is untouched
    assert lazy.ciphertext(4) == cts[4]
    lazy.c0_rows()  # the full range builds the rest
    assert lazy._source is None  # pending list dropped once built
    assert np.array_equal(lazy.stack, eager.stack)
    assert np.array_equal(lazy.phases(sk), eager.phases(sk))
    assert np.array_equal(
        lazy.hom_add_broadcast(stack_ciphertext(cts[0])),
        eager.hom_add_broadcast(stack_ciphertext(cts[0])),
    )


def test_lazy_arena_kernels_build_on_first_touch():
    params, ctx, sk, pk, cts = _setup()
    lazy = CiphertextArena.from_ciphertexts(
        ctx.ring, params, cts, lazy=True, build_tile=2
    )
    eager = CiphertextArena.from_ciphertexts(ctx.ring, params, cts)
    query = stack_ciphertext(cts[2])
    assert np.array_equal(
        lazy.hom_add_broadcast(query), eager.hom_add_broadcast(query)
    )
    assert np.array_equal(lazy.c0_rows(), eager.c0_rows())  # forces the build
    assert lazy._source is None


# ---------------------------------------------------------------------------
# Query arena
# ---------------------------------------------------------------------------


def test_query_arena_rows_and_map_cover_residue_classes():
    """One row per variant covers every (variant, residue class): the
    row of each pair holds the plaintext the variant lays over that
    polynomial, and the per-pair encryption of the pair is that row."""
    params, ctx, sk, pk, cts = _setup()
    from repro.core.query import QueryPreparer

    preparer = QueryPreparer(ctx, 16)
    rng = np.random.default_rng(8)
    prepared = preparer.prepare(rng.integers(0, 2, 48).astype(np.uint8))
    num_polys, n = 7, params.n
    row_map = query_row_layout(prepared.variants, n, range(num_polys))
    # row r is what variant r adds to polynomial 0
    assert row_map[:, 0].tolist() == list(range(prepared.num_variants))
    rows = [
        stack_ciphertext(preparer.encrypt_variant(prepared, v_idx, 0, pk, sk))
        for v_idx in range(prepared.num_variants)
    ]
    qa = QueryArena(ctx.ring, params, prepared.variants, rows)
    assert qa.stack.shape[0] == prepared.num_variants == 33
    with pytest.raises(ValueError, match="query rows"):
        QueryArena(ctx.ring, params, prepared.variants, rows[1:])
    assert np.array_equal(qa.row_map(np.arange(num_polys)), row_map)
    plain = prepared.row_plaintexts(range(qa.stack.shape[0]), n)
    for v_idx, variant in enumerate(prepared.variants):
        for j in range(num_polys):
            row = row_map[v_idx, j]
            assert np.array_equal(plain[row], coefficient_pattern(variant, n, j * n))
            ct = preparer.encrypt_variant(prepared, v_idx, j, pk, sk)
            assert np.array_equal(stack_ciphertext(ct), rows[row])
    # phases cached per secret key
    assert qa.phases(sk) is qa.phases(sk)


@pytest.mark.parametrize("num_polys", [1, 7, 40])
def test_query_arena_asks_for_rows_in_first_appearance_order(num_polys):
    """The order rows are laid out in (``query_row_layout``) is the
    order fresh rows draw from the client's RNG: the ``(phase, shift)``
    plaintexts in the order they first appear when the pairs are
    scanned polynomial by polynomial — every one of them at polynomial
    0, one per variant — and the row map against that lookup."""
    params, ctx, sk, pk, cts = _setup()
    from repro.core.query import QueryPreparer

    preparer = QueryPreparer(ctx, 16)
    rng = np.random.default_rng(num_polys)
    prepared = preparer.prepare(rng.integers(0, 2, 80).astype(np.uint8))
    assert len({v.span for v in prepared.variants}) > 1
    n = params.n

    def identity(variant, j):
        return variant.phase, (j * n - variant.rotation) % variant.span

    want = []
    for j in range(num_polys):
        for variant in prepared.variants:
            if identity(variant, j) not in want:
                want.append(identity(variant, j))
    assert len(want) == prepared.num_variants
    row_of = {key: row for row, key in enumerate(want)}
    rows = [np.full((2, n), row + 1, dtype=np.int64) for row in range(len(want))]
    qa = QueryArena(ctx.ring, params, prepared.variants, rows)
    row_map = qa.row_map(np.arange(num_polys))
    assert row_map.dtype == np.intp
    for v_idx, variant in enumerate(prepared.variants):
        assert row_map[v_idx].tolist() == [
            row_of[identity(variant, j)] for j in range(num_polys)
        ]
    # a shard reads its columns of the one map
    assert np.array_equal(qa.row_map(np.arange(3, num_polys)), row_map[:, 3:])
    assert qa.stack[:, 0, 0].tolist() == [row + 1 for row in range(len(want))]


def test_query_arena_reads_the_phase_rows_it_was_handed():
    """Rows that arrive with their phase (the serving cache's entries)
    are read, in the kernel's element type, with no transform; bare
    ciphertext rows still pay the batched multiply, same values."""
    params, ctx, sk, pk, cts = _setup()
    from repro.core.query import QueryPreparer
    from tests.oracles import count_transforms

    preparer = QueryPreparer(ctx, 16)
    rng = np.random.default_rng(12)
    prepared = preparer.prepare(rng.integers(0, 2, 48).astype(np.uint8))
    fresh = preparer.encrypt_variant_value(
        prepared, range(prepared.num_variants), pk, sk
    )
    assert fresh.shape[1:] == (3, params.n) and fresh.dtype == np.uint32
    handed = QueryArena(ctx.ring, params, prepared.variants, list(fresh))
    computed = QueryArena(
        ctx.ring, params, prepared.variants,
        [row[:2].astype(np.int64) for row in fresh],
    )
    with count_transforms() as calls:
        got = handed.phases(sk)
    assert calls == []
    assert got.dtype == np.uint32
    assert np.array_equal(got, computed.phases(sk))
    assert computed.phases(sk).dtype == np.uint32
    # the ciphertext rows of the same entries, widened for their readers
    assert handed.stack.dtype == np.int64
    assert np.array_equal(handed.stack, computed.stack)
