"""Torus32 arithmetic helpers.

A torus element ``x`` in ``T = R/Z`` is stored as the 32-bit integer
``round(x * 2**32) mod 2**32``; all arrays use ``int64`` holding values
in ``[0, 2**32)`` so intermediate sums stay exact before reduction.
"""

from __future__ import annotations

import numpy as np

from .params import TORUS_MOD


def to_torus(numerator: int, denominator: int) -> int:
    """The torus element ``numerator/denominator`` as a Torus32 integer.

    Mirrors TFHE's ``modSwitchToTorus32``: the fraction is rounded to
    the nearest representable 32-bit torus point.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return round(TORUS_MOD * (numerator % denominator) / denominator) % TORUS_MOD


def from_torus(value: int) -> float:
    """Real representative of a torus element in ``[-1/2, 1/2)``."""
    value %= TORUS_MOD
    if value >= TORUS_MOD // 2:
        value -= TORUS_MOD
    return value / TORUS_MOD


def gaussian_torus(rng: np.random.Generator, alpha: float, size) -> np.ndarray:
    """Gaussian torus noise with standard deviation ``alpha`` (torus
    units), rounded to the 32-bit grid.  ``alpha = 0`` yields zeros."""
    if alpha == 0.0:
        return np.zeros(size, dtype=np.int64)
    noise = rng.normal(0.0, alpha, size) * TORUS_MOD
    return np.mod(np.rint(noise).astype(np.int64), TORUS_MOD)


def uniform_torus(rng: np.random.Generator, size) -> np.ndarray:
    """Uniform torus elements."""
    return rng.integers(0, TORUS_MOD, size, dtype=np.int64)


def mod_switch(value: int, target: int) -> int:
    """Round a Torus32 element onto the ``Z/target`` grid (TFHE's
    ``modSwitchFromTorus32``); used to map LWE phases onto the 2N-point
    circle before blind rotation."""
    interval = TORUS_MOD // target
    return ((int(value) + interval // 2) // interval) % target
