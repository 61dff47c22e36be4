"""The key holder's query encryption, in two steps:
``fresh_phase_rows`` draws ``e`` and returns the phase rows
``delta * m - e`` — all the fused kernel reads — and
``encrypt_phase_rows`` makes the ciphertexts ``c0 = phase - a * s``,
``c1 = a`` of them, ``a`` a keyed function of ``s`` and the phase row, in tiles of
``_SYMMETRIC_TILE_ROWS`` rows.  Ciphertext bits are new in this form, so
the discipline is oracle equality (the reference arithmetic from the
same RNG state), exact ``phase == c0 + c1 * s``, decryption to the
plaintext, and the noise bound."""

from __future__ import annotations

import hashlib

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
    return unstack_ciphertext(ctx.ring, ctx.params, row.astype(np.int64))


def _splitmix_row(phase_row, sk, q):
    """``a`` of one phase row the long way, in Python integers: the key
    is the SHAKE-256 stream of ``s``'s int64 bytes read as 64-bit words,
    the row's seed its inner product with them mod ``2**64``, and word
    ``i`` of SplitMix64 from that seed, reduced into ``[0, q)``."""
    mask = (1 << 64) - 1
    n = len(phase_row)
    words = hashlib.shake_256(sk.s.coeffs.tobytes()).digest(8 * n)
    key = [int.from_bytes(words[8 * i : 8 * i + 8], "little") for i in range(n)]
    seed = sum(int(p) * k for p, k in zip(phase_row, key)) & mask
    out = []
    for i in range(1, n + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        signed = z - (1 << 64) if z >> 63 else z
        out.append(signed % q)  # the word read as int64, floor-reduced
    return np.array(out, dtype=np.int64)


def _plain(params, rows, seed):
    return np.random.default_rng(seed).integers(
        0, params.t, size=(rows, params.n), dtype=np.int64
    )


@pytest.mark.parametrize("name", ["test_small", "paper"])
@settings(max_examples=12, deadline=None)
@given(rows=st.sampled_from([1, 5, 39]), seed=st.integers(0, 2**32 - 1))
def test_every_row_of_a_block_decrypts_and_carries_its_exact_phase(name, rows, seed):
    """Blocks of 1 / 5 / 39 rows — inside one tile, and across four
    tile boundaries: every ciphertext row is a ciphertext of its
    plaintext under ``sk`` whose ``ctx.phase`` is exactly the phase row
    it was made of.  One encryption per row is counted, by the phase
    step."""
    assert 5 < TILE < 39 and 39 % TILE  # boundaries fall inside the block
    ctx, sk = _endpoint(name)
    params = ctx.params
    plain = _plain(params, rows, seed)
    before = ctx.counter.encryptions
    phases = ctx.fresh_phase_rows(plain)
    block = ctx.encrypt_phase_rows(phases, sk)
    assert ctx.counter.encryptions == before + rows
    assert phases.shape == (rows, params.n) and block.shape == (rows, 2, params.n)
    # q = 2**32: the narrowest type that holds [0, q)
    assert phases.dtype == block.dtype == np.uint32
    for row, phase, want in zip(block, phases, plain):
        ct = _ciphertext(ctx, row)
        assert np.array_equal(ctx.phase(ct, sk).coeffs, phase)
        assert np.array_equal(ctx.decrypt(ct, sk).poly.coeffs, want)
        assert ctx.noise_residual(ct, sk) <= NoiseBounds(params).fresh_symmetric


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_block_equals_the_reference_arithmetic_from_the_same_draws(name):
    """Oracle equality: the big-int reference ring, same seed — the
    same phase rows and ``(R, 2, n)`` block bit for bit, written out as
    the textbook ``c0 = -(a s) - e + delta m`` on the reference's
    polynomials: ``e`` for every row in one draw from the context's
    RNG, ``a`` of each row a SplitMix64 stream seeded by the row's
    phase under a hash keyed by ``s``."""
    vec, vec_sk = _endpoint(name)
    ref, ref_sk = _endpoint(name, "reference")
    assert vec_sk.s == ref_sk.s
    params = vec.params
    rows = TILE + 3
    plain = _plain(params, rows, 5)
    got_phases = vec.fresh_phase_rows(plain)
    want_phases = ref.fresh_phase_rows(plain)
    assert np.array_equal(got_phases, want_phases)
    got = vec.encrypt_phase_rows(got_phases, vec_sk)
    want = ref.encrypt_phase_rows(want_phases, ref_sk)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # ... and spelled out from the draws
    ring = ref.ring
    e = np.rint(
        np.random.default_rng(11).normal(0.0, params.sigma, size=(rows, params.n))
    )
    for i in range(rows):
        a = _splitmix_row(got_phases[i], ref_sk, params.q)
        a_poly = RingPoly(ring, a)
        scaled = ring.make(plain[i]).scalar_mul(params.delta)
        c0 = -(a_poly * ref_sk.s) - ring.make(e[i].astype(np.int64)) + scaled
        assert np.array_equal(got[i, 0], c0.coeffs)
        assert np.array_equal(got[i, 1], a)
        assert np.array_equal(got_phases[i], (c0 + a_poly * ref_sk.s).coeffs)


def test_one_phase_row_is_one_ciphertext():
    """``a`` is a function of ``s`` and the phase row: the same phase
    row gets the same ciphertext from any context, in any block and at
    any position, and nothing is drawn from the context's RNG — two
    ciphertexts of one phase under different ``a`` would give away
    ``s``.  Distinct phase rows get distinct ``a``; another key,
    another ``a``."""
    ctx, sk = _endpoint("paper")
    params = ctx.params
    phases = ctx.fresh_phase_rows(_plain(params, TILE + 2, 6))
    state = ctx._rng.bit_generator.state
    block = ctx.encrypt_phase_rows(phases, sk)
    assert ctx._rng.bit_generator.state == state
    other, _ = _endpoint("paper", seed=99)
    assert np.array_equal(other.encrypt_phase_rows(phases, sk), block)
    reordered = ctx.encrypt_phase_rows(phases[[TILE + 1, 0, 0]], sk)
    assert np.array_equal(reordered, block[[TILE + 1, 0, 0]])
    assert len({row[1].tobytes() for row in block}) == len(block)
    stranger = KeyGenerator(params, seed=5).secret_key()
    assert not np.array_equal(ctx.encrypt_phase_rows(phases[:1], stranger)[0, 1], block[0, 1])


def test_encrypt_symmetric_is_the_one_row_call():
    """One symmetric encryptor: ``encrypt_symmetric(pt, sk)`` draws and
    returns what a one-row block holds."""
    one, sk = _endpoint("paper")
    block, _ = _endpoint("paper")
    coeffs = np.arange(one.params.n) % one.params.t
    for _ in range(2):
        ct = encrypt_symmetric(one, one.plaintext(coeffs), sk)
        row = block.encrypt_phase_rows(block.fresh_phase_rows(coeffs[None]), sk)[0]
        assert ct == _ciphertext(block, row)
        assert ct.c0.coeffs.dtype == np.int64
    assert one.counter.encryptions == block.counter.encryptions == 2


def test_the_phase_pass_runs_no_transform_and_draws_e_alone():
    """The phase step is one Gaussian draw and a fold: no transform,
    and the context's RNG moves exactly as far as one ``(R, n)``
    normal draw — no uniform ``a``.  The message changes nothing."""
    ctx, _ = _endpoint("paper")
    n = ctx.params.n
    for fill in (0, ctx.params.t - 1):
        twin = np.random.default_rng()
        twin.bit_generator.state = ctx._rng.bit_generator.state
        with count_transforms() as calls:
            ctx.fresh_phase_rows(np.full((TILE + 2, n), fill))
        assert calls == []
        twin.normal(0.0, ctx.params.sigma, size=(TILE + 2, n))
        assert ctx._rng.bit_generator.state == twin.bit_generator.state


def test_a_pass_runs_transforms_shaped_by_rows_and_n_only():
    """The ciphertext step: 2 forward + 2 inverse half-size FFTs per
    row (``a`` in two 16-bit pieces against the cached spectrum of
    ``s``), a tile at a time; no Gaussian row is ever transformed, and
    the message changes nothing."""
    ctx, sk = _endpoint("paper")
    n = ctx.params.n
    ctx.encrypt_phase_rows(ctx.fresh_phase_rows(np.zeros((1, n), dtype=np.int64)), sk)
    seen = []
    for fill in (0, ctx.params.t - 1):
        phases = ctx.fresh_phase_rows(np.full((TILE + 2, n), fill))
        with count_transforms() as calls:
            ctx.encrypt_phase_rows(phases, sk)
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
    phases = ctx.fresh_phase_rows(_plain(ctx.params, 3, 4))
    with count_transforms() as calls:
        block = ctx.encrypt_phase_rows(phases, big)
    assert calls and {call[0] for call in calls} == {"_FourStepNtt"}
    for row, phase in zip(block, phases):
        ct = _ciphertext(ctx, row)
        assert np.array_equal((ct.c0 + ct.c1 * big.s).coeffs, phase)


def test_plaintext_rows_are_checked():
    ctx, sk = _endpoint("test_small")
    n, t = ctx.params.n, ctx.params.t
    with pytest.raises(ValueError, match="plaintext rows"):
        ctx.fresh_phase_rows(np.zeros(n, dtype=np.int64))
    with pytest.raises(ValueError, match="plaintext rows"):
        ctx.fresh_phase_rows(np.zeros((2, n + 1), dtype=np.int64))
    for bad in (-1, t):
        rows = np.zeros((2, n), dtype=np.int64)
        rows[1, 3] = bad
        with pytest.raises(ValueError, match=r"\[0, "):
            ctx.fresh_phase_rows(rows)
    before = ctx.counter.encryptions
    empty = ctx.fresh_phase_rows(np.zeros((0, n), dtype=np.int64))
    assert empty.shape == (0, n) and ctx.counter.encryptions == before
    assert ctx.encrypt_phase_rows(empty, sk).shape == (0, 2, n)


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
        query_ct = encrypt_symmetric(ctx, ctx.plaintext(q_plain), sk)
        total = ctx.add(db_ct, query_ct)
        assert np.array_equal(ctx.decrypt(total, sk).poly.coeffs, db_plain + q_plain)
        worst_query = max(worst_query, ctx.noise_residual(query_ct, sk))
        worst_sum = max(worst_sum, ctx.noise_residual(total, sk))
        assert ctx.noise_residual(db_ct, sk) <= bounds.fresh
    assert 0 < worst_query <= bounds.fresh_symmetric
    assert worst_query < worst_sum <= bounds.fresh + bounds.fresh_symmetric
    # a query row's budget: log2((delta / 2) / noise), ~11.5 bits here
    assert noise_budget_bits(ctx, query_ct, sk) > 10
