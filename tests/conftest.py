"""Shared fixtures.

Key generation and context construction are the expensive parts of the
suite, so everything reusable is session-scoped.  Fixtures come in
"small" (n=64) and "ring" (n=256) sizes; both use the paper's packing
semantics (t = 2**16, q = 2**32) unless a test needs multiplication
headroom.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.he import BFVContext, BFVParams, KeyGenerator


@pytest.fixture(scope="session")
def small_params() -> BFVParams:
    return BFVParams.test_small(64)


@pytest.fixture(scope="session")
def small_ctx(small_params) -> BFVContext:
    return BFVContext(small_params, seed=101)


@pytest.fixture(scope="session")
def small_keys(small_params):
    gen = KeyGenerator(small_params, seed=101)
    sk = gen.secret_key()
    pk = gen.public_key(sk)
    return sk, pk


@pytest.fixture(scope="session")
def mult_params() -> BFVParams:
    """Parameters with multiplication noise headroom (arithmetic baseline)."""
    return BFVParams.arithmetic_baseline(n=64, t=256)


@pytest.fixture(scope="session")
def mult_ctx(mult_params) -> BFVContext:
    return BFVContext(mult_params, seed=202)


@pytest.fixture(scope="session")
def mult_keys(mult_params):
    gen = KeyGenerator(mult_params, seed=202)
    sk = gen.secret_key()
    pk = gen.public_key(sk)
    rlk = gen.relin_key(sk)
    return sk, pk, rlk


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
