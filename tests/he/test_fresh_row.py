"""A fresh row — ``encrypt_with_phase``: the ciphertext ``encrypt``
returns plus its phase ``c0 + c1 * s`` from the same pass — on the
vectorized backend's narrow limb basis, against the reference backend's
plain ``encrypt`` followed by ``c0 + c1 * s`` from the same RNG state.
Exact arithmetic on both sides: every comparison is ``==`` on the
coefficient vectors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.packing import derive_masking_poly
from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.he.backend import get_rns_basis
from repro.he.keys import PublicKey
from repro.he.poly import RingContext
from repro.he.primes import find_ntt_prime
from tests.oracles import count_transforms

PARAM_SETS = {
    "paper": BFVParams.paper,
    "paper_secure": BFVParams.paper_secure,
    "odd_q": lambda: BFVParams(n=256, q=(1 << 40) - 87, t=1 << 16, name="odd"),
    "native_prime": lambda: BFVParams(
        n=64, q=find_ntt_prime(30, 64), t=1 << 8, name="native"
    ),
}


def _endpoint(params, backend, seed=7):
    ctx = BFVContext(params, seed=seed, backend=backend)
    keygen = KeyGenerator(params, seed=seed, backend=backend)
    sk = keygen.secret_key()
    return ctx, sk, keygen.public_key(sk)


def _fresh_row(ctx, sk, pk, pt, **kwargs):
    ct, phase = ctx.encrypt_with_phase(pt, pk, sk, **kwargs)
    assert ctx.phase(ct, sk) == phase  # the after-the-fact form agrees
    return ct.c0.coeffs, ct.c1.coeffs, phase.coeffs


def _reference_row(ctx, sk, pk, pt, **kwargs):
    ct = ctx.encrypt(pt, pk, **kwargs)
    return ct.c0.coeffs, ct.c1.coeffs, (ct.c0 + ct.c1 * sk.s).coeffs


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
@pytest.mark.parametrize("deterministic", [False, True])
def test_fresh_row_equals_reference_encrypt_then_multiply(name, deterministic):
    """Same seed, same draws: ``(c0, c1, phase)`` bit-identical, noisy
    and in the deterministic mode's noiseless form with a derived ``u``;
    plain ``encrypt`` draws and returns the same ciphertext."""
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
    plain = BFVContext(params, seed=7, backend="vectorized")
    with_phase = BFVContext(params, seed=7, backend="vectorized")
    pt = plain.plaintext(np.arange(params.n) % params.t)
    for _ in range(2):
        assert plain.encrypt(pt, vec_pk) == with_phase.encrypt_with_phase(
            pt, vec_pk, vec_sk
        )[0]


@pytest.mark.parametrize("name", ["paper", "paper_secure", "odd_q"])
def test_fresh_row_at_the_operand_bounds(name):
    """The largest products the narrow basis is sized for: a public key
    of all ``q - 1`` (and of all ``q // 2``, the largest centered
    magnitude), masks and secret keys of all ``+1`` / all ``-1`` /
    alternating signs, an error polynomial at ``+-q // 2``."""
    params = PARAM_SETS[name]()
    n, q = params.n, params.q
    vec = RingContext(n, q, backend="vectorized")
    ref = RingContext(n, q, backend="reference")
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
        polys = [vec.make(x) for x in (full, full, u, e1, s)]
        pk0_u, c1, c1_s = vec.backend.fresh_row(*polys)
        assert np.array_equal(pk0_u, want_pk_u.coeffs)
        assert np.array_equal(c1, want_c1.coeffs)
        assert np.array_equal(c1_s, want_c1_s.coeffs)
        # without the key: the same two rows, and the phase after the fact
        pk0_u, c1, none = vec.backend.fresh_row(*polys[:4])
        assert none is None
        assert np.array_equal(pk0_u, want_pk_u.coeffs)
        assert np.array_equal(c1, want_c1.coeffs)
        assert vec.make(c1).mul_by_small(vec.make(s)) == vec.make(want_c1_s.coeffs)


def test_narrow_basis_is_two_limbs_at_paper_and_sized_from_the_checked_bound():
    params = BFVParams.paper()
    n, q = params.n, params.q
    backend = RingContext(n, q, backend="vectorized").backend
    general = backend.basis
    assert len(general.primes) == 3
    # a [0, q) operand times a ternary one: |coefficient| <= n * (q - 1)
    narrow = backend.basis_for(n * (q - 1))
    assert len(narrow.primes) == 2 and narrow.primes == general.primes[:2]
    assert narrow is get_rns_basis(n, q, 2)
    # the chained product of a fresh row, (pk1 u + e1) s with ternary u
    # and s — the documented bound n * n * q < M / 2 — is two limbs too
    assert backend.basis_for(n * (n * (q - 1) + q // 2)) is narrow
    assert n * n * q < narrow.modulus // 2
    assert narrow.fits(n * n * q) and not narrow.fits(narrow.modulus // 2 + 1)
    # one 2**30 limb is not enough, and a bound no prefix of the general
    # limbs holds gets the general basis
    assert not get_rns_basis(n, q, 1).fits(n * (q - 1))
    assert backend.basis_for(n * (q // 2) ** 2) is general


@pytest.mark.parametrize("magnitude", [1, 2, 100, 1000, None])
def test_larger_masks_take_wider_bases_never_a_wrap(magnitude):
    """``u`` is whatever the caller passes: the basis follows its
    checked magnitude, up to the general products for a uniform one."""
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
    narrow = get_rns_basis(n, q, 2)
    with count_transforms() as calls:
        vec.encrypt_with_phase(vec.plaintext(coeffs), vec_pk, vec_sk, u=vec.ring.make(u))
    if magnitude in (1, 2, 100):
        # n * n * q * 100 < 2**59 < M / 2: the whole row on two limbs
        assert narrow in vec_pk.pk0._ntt
        assert {call[2] for call in calls} == {2}
    else:
        # the chained product needs the third limb: general products for
        # the phase, and for a uniform u for pk0 u and pk1 u as well
        assert 3 in {call[2] for call in calls}
        assert (narrow in vec_pk.pk0._ntt) == (magnitude == 1000)


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
    """``pk0`` / ``pk1`` / ``s`` enter products on the narrow basis
    (fresh rows) and on the general one (everything else); alternating
    between the two re-transforms none of them."""
    params = BFVParams.paper()
    ctx, sk, pk = _endpoint(params, "vectorized")
    backend = ctx.ring.backend
    rng = np.random.default_rng(2)
    pt = ctx.plaintext(rng.integers(0, params.t, size=params.n, dtype=np.int64))
    x = ctx.ring.random_uniform(rng)

    def one_round():
        ctx.encrypt_with_phase(pt, pk, sk)
        ctx.phase(ctx.encrypt(pt, pk), sk)
        return pk.pk0 * x, pk.pk1 * x, sk.s * x

    one_round()
    narrow = get_rns_basis(params.n, params.q, 2)
    for poly in (pk.pk0, pk.pk1, sk.s):
        assert set(poly._ntt) == {narrow, backend.basis}
    held = {id(poly): dict(poly._ntt) for poly in (pk.pk0, pk.pk1, sk.s)}
    with count_transforms() as calls:
        one_round()
    for poly in (pk.pk0, pk.pk1, sk.s):
        assert all(poly._ntt[b] is held[id(poly)][b] for b in held[id(poly)])
    # per round, on two limbs — the fresh row in one pass: (u, e1)
    # forward together, (pk0 u, c1, c1 s) back together, 2 forward + 3
    # inverse; encrypt then phase, the same count in four calls: forward
    # u, inverse (pk0 u, pk1 u), forward c1, inverse c1 s.  On three
    # limbs (x holds its transform too): an inverse per general product
    # — and no forward of a key on either basis
    assert sorted(calls) == sorted(
        [
            ("_FourStepNtt", "forward_pair", 2, (params.n,)),
            ("_FourStepNtt", "inverse_reduced", 2, (3, 2, params.n)),
            ("_FourStepNtt", "forward", 2, (params.n,)),
            ("_FourStepNtt", "inverse_reduced", 2, (2, 2, params.n)),
            ("_FourStepNtt", "forward", 2, (params.n,)),
            ("_FourStepNtt", "inverse_reduced", 2, (1, 2, params.n)),
        ]
        + [("_FourStepNtt", "inverse_reduced", 3, (3, params.n))] * 3
    )


def test_public_key_of_foreign_polys_still_encrypts():
    """``encrypt`` builds its outputs on the encrypting context's ring
    whichever (equal) ring the key polynomials came from."""
    params = BFVParams.test_small(128)
    ctx, sk, pk = _endpoint(params, "vectorized")
    other = RingContext(params.n, params.q, backend="vectorized")
    foreign = PublicKey(params, other.make(pk.pk0.coeffs), other.make(pk.pk1.coeffs))
    pt = ctx.plaintext(np.arange(params.n) % params.t)
    assert ctx.decrypt(ctx.encrypt(pt, foreign), sk).poly == pt.poly
