"""A fresh public-key row — ``encrypt``, what database outsourcing and
the deterministic mode's query masks run — through the vectorized
backend's small-operand FFT product, and its phase ``c0 + c1 * s``
after the fact, against the reference backend's from the same RNG
state.  Exact arithmetic on both sides: every comparison is ``==`` on
the coefficient vectors.  (The key holder's query rows are encrypted
under the secret key: ``tests/he/test_symmetric_rows.py``.)"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packing import derive_masking_poly
from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.he.keys import PublicKey
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_prime
from tests.oracles import (
    ARITHMETIC,
    count_transforms,
    paper_secure_params,
    reference_arithmetic,
)

PARAM_SETS = {
    "paper": BFVParams.paper,
    "paper_secure": paper_secure_params,
    "odd_q": lambda: BFVParams(n=256, q=(1 << 40) - 87, t=1 << 16, name="odd"),
    "native_prime": lambda: BFVParams(
        n=64, q=find_ntt_prime(30, 64), t=1 << 8, name="native"
    ),
}


def _endpoint(params, backend, seed=7):
    ctx = ARITHMETIC[backend](BFVContext(params, seed=seed))
    keygen = ARITHMETIC[backend](KeyGenerator(params, seed=seed))
    sk = keygen.secret_key()
    return ctx, sk, keygen.public_key(sk)


def _fresh_row(ctx, sk, pk, pt, **kwargs):
    ct = ctx.encrypt(pt, pk, **kwargs)
    return ct.c0.coeffs, ct.c1.coeffs, ctx.phase(ct, sk).coeffs


def _reference_row(ctx, sk, pk, pt, **kwargs):
    ct = ctx.encrypt(pt, pk, **kwargs)
    return ct.c0.coeffs, ct.c1.coeffs, (ct.c0 + ct.c1 * sk.s).coeffs


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
@pytest.mark.parametrize("deterministic", [False, True])
def test_fresh_row_equals_reference_encrypt_then_multiply(name, deterministic):
    """Same seed, same draws: ``(c0, c1, phase)`` bit-identical, noisy
    and in the deterministic mode's noiseless form with a derived
    ``u``."""
    params = PARAM_SETS[name]()
    vec, vec_sk, vec_pk = _endpoint(params, "vectorized")
    ref, ref_sk, ref_pk = _endpoint(params, "reference")
    assert vec_sk.s == ref_sk.s and vec_pk.pk0 == ref_pk.pk0
    rng = np.random.default_rng(params.n)
    # the reference product at the 54-bit modulus is big-int: ~1 s each
    for index in range(1 if name == "paper_secure" else 3):
        coeffs = rng.integers(0, params.t, size=params.n, dtype=np.int64)
        kwargs = [{}, {}]
        if deterministic:
            kwargs = [
                dict(noiseless=True, u=derive_masking_poly(ctx, 0xC1F0, "qv", index))
                for ctx in (vec, ref)
            ]
        got = _fresh_row(vec, vec_sk, vec_pk, vec.plaintext(coeffs), **kwargs[0])
        want = _reference_row(ref, ref_sk, ref_pk, ref.plaintext(coeffs), **kwargs[1])
        for g, w in zip(got, want):
            assert g.dtype == np.int64 and np.array_equal(g, w)
    assert vec.counter.snapshot() == ref.counter.snapshot()


@pytest.mark.parametrize("name", ["paper", "paper_secure", "odd_q"])
def test_fresh_row_at_the_operand_bounds(name):
    """The largest products a fresh row can meet: a public key of all
    ``q - 1`` (and of all ``q // 2``, the largest centered magnitude),
    masks and secret keys of all ``+1`` / all ``-1`` / alternating
    signs, an error polynomial at ``+-q // 2`` (at ``paper_secure`` the
    piece products rejoin past ``2**63`` unless the join reduces as it
    goes)."""
    params = PARAM_SETS[name]()
    n, q = params.n, params.q
    vec = RingContext(n, q)
    ref = reference_arithmetic(RingContext(n, q))
    ones = np.ones(n, dtype=np.int64)
    signs = np.where(np.arange(n) % 2 == 0, 1, -1)
    # (pk value, mask, e1 value, secret key): same-sign operands stack
    # every term of a coefficient in one direction
    worst = [
        (q - 1, ones, q // 2, ones),
        (q - 1, -ones, -(q // 2), -ones),
        (q - 1, ones, q // 2, signs),
        (q // 2, signs, 0, ones),
        (q // 2 + 1, -ones, 3, signs),
    ]
    for pk_value, u, e1_value, s in worst:
        full = np.full(n, pk_value, dtype=np.int64)
        e1 = np.full(n, e1_value, dtype=np.int64)
        want_pk_u = ref.make(full) * ref.make(u)
        want_c1 = want_pk_u + ref.make(e1)
        want_c1_s = want_c1 * ref.make(s)
        # (the masks go in centered, as the samplers draw them)
        pk0_u, c1 = vec.backend.fresh_row(vec.make(full), vec.make(full), u, e1)
        assert np.array_equal(pk0_u, want_pk_u.coeffs)
        assert np.array_equal(c1, want_c1.coeffs)
        assert vec.make(c1).mul_by_small(vec.make(s)) == vec.make(want_c1_s.coeffs)


def _ran(calls, cls):
    return [call for call in calls if call[0] == cls]


def test_piece_plan_is_two_pieces_at_paper_and_sized_from_the_checked_bound():
    """The plan is a function of ``(n, q, checked magnitude)``: the
    fewest equal pieces whose a-priori error bound
    ``3 * 5 (log2(n/2) + 1) 2**-53 * n * 2**bits * |small|`` stays
    ``<= 2**-8``."""
    params = BFVParams.paper()
    n, q = params.n, params.q
    fft = RingContext(n, q).backend.fft
    levels = 10  # log2(512) + 1
    assert fft.limit == (1 << 45) // (15 * levels * n)

    def bound(bits, magnitude):
        return 15 * levels * 2.0**-53 * n * 2.0**bits * magnitude

    assert fft.plan(1) == fft.plan(0) == (16, 2)
    assert bound(16, 1) < 2.0**-19
    for magnitude in (2, 100, 1000, 3495):
        assert fft.plan(magnitude) == (16, 2)
        assert bound(16, magnitude) <= 2.0**-8
    assert bound(16, 3496) > 2.0**-8
    assert fft.plan(3496) == (11, 3) and bound(15, 3496) <= 2.0**-8
    # 8-bit pieces are the narrowest: one past that, the general product
    last = fft.limit >> 8
    assert fft.plan(last) == (8, 4) and fft.plan(last + 1) is None
    assert bound(8, last) <= 2.0**-8 < bound(8, 2 * last)
    secure = paper_secure_params()
    wide = RingContext(secure.n, secure.q).backend.fft
    assert wide.plan(1) == (18, 3) and wide.plan(1000) == (14, 4)


def test_the_piece_plan_of_a_fresh_row_is_the_same_for_any_two_messages():
    """Transform calls and shapes of an encryption — under the public
    key or the secret key — never follow the message: all zeros, all
    ``t - 1``, random."""
    params = BFVParams.paper()
    ctx, sk, pk = _endpoint(params, "vectorized")
    zeros = np.zeros(params.n, dtype=np.int64)
    ctx.encrypt_symmetric_rows(zeros[None], sk)  # the keys' spectra, once
    ctx.encrypt(ctx.plaintext(zeros), pk)
    rng = np.random.default_rng(4)
    seen = []
    for coeffs in (
        np.zeros(params.n, dtype=np.int64),
        np.full(params.n, params.t - 1, dtype=np.int64),
        rng.integers(0, params.t, size=params.n, dtype=np.int64),
    ):
        with count_transforms() as calls:
            ctx.encrypt_symmetric_rows(coeffs[None], sk)
            ctx.encrypt(ctx.plaintext(coeffs), pk)
        seen.append(calls)
    assert seen[0] == seen[1] == seen[2]
    assert seen[0] == [
        ("SmallProductFft", "forward", 1, (1, 2, params.n)),
        ("SmallProductFft", "inverse", 1, (1, 2, params.n // 2)),
        ("SmallProductFft", "forward", 1, (params.n,)),
        ("SmallProductFft", "inverse", 1, (4, params.n // 2)),
    ]


#: one past the magnitude that still gets 8-bit pieces at ``paper()``
PAST_THE_PIECE_LIMIT = (((1 << 45) // (15 * 10 * 1024)) >> 8) + 1


@pytest.mark.parametrize(
    "magnitude", [1, 2, 100, 1000, 4000, PAST_THE_PIECE_LIMIT, None]
)
def test_larger_masks_take_wider_bases_never_a_wrap(magnitude):
    """``u`` is whatever the caller passes: the splitting follows its
    checked magnitude — more, narrower pieces for a larger mask — up to
    the general products for one past the 8-bit-piece limit and for a
    uniform one."""
    params = BFVParams.paper()
    n, q = params.n, params.q
    vec, vec_sk, vec_pk = _endpoint(params, "vectorized")
    ref, ref_sk, ref_pk = _endpoint(params, "reference")
    rng = np.random.default_rng(5)
    if magnitude is None:
        u = rng.integers(0, q, size=n, dtype=np.int64)
    else:
        u = rng.integers(-magnitude, magnitude + 1, size=n, dtype=np.int64)
        u[0] = magnitude
    coeffs = rng.integers(0, params.t, size=n, dtype=np.int64)
    got = _fresh_row(vec, vec_sk, vec_pk, vec.plaintext(coeffs), u=vec.ring.make(u))
    want = _reference_row(
        ref, ref_sk, ref_pk, ref.plaintext(coeffs), u=ref.ring.make(u)
    )
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    with count_transforms() as calls:
        vec.encrypt(vec.plaintext(coeffs), vec_pk, u=vec.ring.make(u))
    plan = {1: (16, 2), 2: (16, 2), 100: (16, 2), 1000: (16, 2), 4000: (11, 3)}.get(
        magnitude
    )
    assert vec.ring.backend.fft.plan(int(np.abs(vec.ring.make(u).centered()).max())) == plan
    if plan is not None:
        # the whole row in one pass: pk0 u and pk1 u by pieces, and no
        # limb transform
        assert plan in vec_pk.pk0._ntt and plan in vec_pk.pk1._ntt
        assert calls == [
            ("SmallProductFft", "forward", 1, (n,)),
            ("SmallProductFft", "inverse", 1, (2 * plan[1], n // 2)),
        ]
    else:
        # not small: the general three-limb products, both
        assert {call[2] for call in calls} == {3}
        assert len(calls) == 4 and not _ran(calls, "SmallProductFft")


def test_a_perturbed_inverse_raises(monkeypatch):
    """The rounding-residual guard: an inverse FFT off by 0.2 must not
    round its way to a flipped coefficient."""
    params = BFVParams.paper()
    ctx, sk, pk = _endpoint(params, "vectorized")
    pt = ctx.plaintext(np.arange(params.n) % params.t)
    ct = ctx.encrypt(pt, pk)
    real = np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda *a, **kw: real(*a, **kw) + 0.2)
    for run in (
        lambda: ctx.encrypt_symmetric_rows(pt.poly.coeffs[None], sk),
        lambda: ctx.encrypt(pt, pk),
        lambda: ctx.phase(ct, sk),
    ):
        with pytest.raises(ArithmeticError, match="residual"):
            run()
    monkeypatch.setattr(np.fft, "ifft", real)
    ctx.encrypt_symmetric_rows(pt.poly.coeffs[None], sk)


def test_a_large_key_takes_the_general_product():
    """``mul_by_small`` checks its operand: a secret-key argument that
    is not small multiplies on the general basis, same value."""
    params = BFVParams.paper()
    vec, vec_sk, vec_pk = _endpoint(params, "vectorized")
    rng = np.random.default_rng(9)
    ct = vec.encrypt(vec.plaintext(np.arange(params.n)), vec_pk)
    big = vec.ring.random_uniform(rng)
    assert ct.c1.mul_by_small(big) == ct.c1 * big
    assert ct.c1.copy().mul_by_small(vec_sk.s) == ct.c1 * vec_sk.s


def test_keys_hold_one_transform_per_basis():
    """``pk0`` / ``pk1`` enter products as piece spectra (fresh rows)
    and on the general basis (everything else), ``s`` as its own
    spectrum and on the general basis; going back and forth
    re-transforms none of them."""
    params = BFVParams.paper()
    n = params.n
    ctx, sk, pk = _endpoint(params, "vectorized")
    backend = ctx.ring.backend
    rng = np.random.default_rng(2)
    pt = ctx.plaintext(rng.integers(0, params.t, size=n, dtype=np.int64))
    x = ctx.ring.random_uniform(rng)

    def one_round():
        ctx.encrypt_symmetric_rows(pt.poly.coeffs[None], sk)
        ctx.phase(ctx.encrypt(pt, pk), sk)
        return pk.pk0 * x, pk.pk1 * x, sk.s * x

    one_round()
    plan = (16, 2)
    assert set(pk.pk0._ntt) == set(pk.pk1._ntt) == {plan, backend.basis}
    assert set(sk.s._ntt) == {"small", backend.basis}
    assert pk.pk0._ntt[plan].shape == (2, n // 2)
    held = {id(poly): dict(poly._ntt) for poly in (pk.pk0, pk.pk1, sk.s)}
    with count_transforms() as calls:
        one_round()
    for poly in (pk.pk0, pk.pk1, sk.s):
        assert all(poly._ntt[key] is held[id(poly)][key] for key in held[id(poly)])
    # per round — a query row under the secret key: the pieces of a
    # forward, one product back; encrypt: u forward, the four piece
    # rows back; phase: the pieces of c1 forward, one product back.  On
    # three limbs (x holds its transform too): an inverse per general
    # product — and no transform of a key
    assert calls == [
        ("SmallProductFft", "forward", 1, (1, 2, n)),
        ("SmallProductFft", "inverse", 1, (1, 2, n // 2)),
        ("SmallProductFft", "forward", 1, (n,)),
        ("SmallProductFft", "inverse", 1, (4, n // 2)),
        ("SmallProductFft", "forward", 1, (2, n)),
        ("SmallProductFft", "inverse", 1, (1, 2, n // 2)),
    ] + [("_FourStepNtt", "inverse_reduced", 3, (3, n))] * 3


def test_public_key_of_foreign_polys_still_encrypts():
    """``encrypt`` builds its outputs on the encrypting context's ring
    whichever (equal) ring the key polynomials came from."""
    params = BFVParams.test_small(128)
    ctx, sk, pk = _endpoint(params, "vectorized")
    other = RingContext(params.n, params.q)
    foreign = PublicKey(params, other.make(pk.pk0.coeffs), other.make(pk.pk1.coeffs))
    pt = ctx.plaintext(np.arange(params.n) % params.t)
    assert ctx.decrypt(ctx.encrypt(pt, foreign), sk).poly == pt.poly
