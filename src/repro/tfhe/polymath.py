"""Negacyclic polynomial arithmetic over the discretized torus.

TLWE/TGSW work in ``T_N[X] = T[X]/(X^N + 1)``.  The only multiplication
the scheme needs is *small integer polynomial* x *torus polynomial* (the
gadget-decomposed digits are bounded by ``Bg/2``), which lets us compute
exactly in int64 by splitting each 32-bit torus coefficient into two
16-bit halves: every partial convolution stays below ``2**63``.
"""

from __future__ import annotations

import numpy as np

from .params import TORUS_MOD

_HALF_BITS = 16
_HALF_MASK = (1 << _HALF_BITS) - 1


def negacyclic_convolve_small(small: np.ndarray, torus: np.ndarray) -> np.ndarray:
    """Exact ``small * torus mod (X^N + 1, 2**32)``.

    ``small`` must have entries bounded by roughly ``2**15`` in absolute
    value (gadget digits are <= Bg/2 <= 2**15 for any valid parameter
    set); ``torus`` holds canonical Torus32 values.
    """
    n = len(small)
    if len(torus) != n:
        raise ValueError("polynomial length mismatch")
    lo = np.asarray(torus, dtype=np.int64) & _HALF_MASK
    hi = np.asarray(torus, dtype=np.int64) >> _HALF_BITS
    small64 = np.asarray(small, dtype=np.int64)
    conv_lo = np.convolve(small64, lo)
    conv_hi = np.convolve(small64, hi)
    # Wrap the upper half of the linear convolution negacyclically.
    full = (conv_lo + (conv_hi << _HALF_BITS)) % TORUS_MOD
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return np.mod(out, TORUS_MOD)


def rotate_by_xai(poly: np.ndarray, a: int) -> np.ndarray:
    """Multiply a torus polynomial by ``X**a`` mod ``X^N + 1``.

    ``a`` is taken mod ``2N``; exponents in ``[N, 2N)`` negate, because
    ``X^N = -1`` in the negacyclic ring.
    """
    n = len(poly)
    a %= 2 * n
    negate_all = a >= n
    a %= n
    out = np.empty(n, dtype=np.int64)
    if a == 0:
        out[:] = poly
    else:
        out[a:] = poly[: n - a]
        out[:a] = (-poly[n - a :]) % TORUS_MOD
    if negate_all:
        out = (-out) % TORUS_MOD
    return np.mod(out, TORUS_MOD)


def gadget_decompose(poly: np.ndarray, bg_bit: int, levels: int) -> list[np.ndarray]:
    """Signed base-``2**bg_bit`` decomposition of a torus polynomial.

    Returns ``levels`` integer polynomials ``d_1 .. d_l`` with entries in
    ``[-Bg/2, Bg/2)`` such that ``sum_i d_i * 2**(32 - i*bg_bit)``
    approximates every coefficient to within one unit of the last digit
    (truncation of the bits below ``2**(32 - levels*bg_bit)``).  This is
    TFHE's ``tGswTorus32PolynomialDecompH``.
    """
    bg = 1 << bg_bit
    half_bg = bg >> 1
    mask = bg - 1
    # Adding this offset turns truncation into round-to-nearest for all
    # digits simultaneously (the standard TFHE trick).
    offset = 0
    for i in range(1, levels + 1):
        offset += half_bg << (32 - i * bg_bit)
    shifted = (np.asarray(poly, dtype=np.int64) + offset) % TORUS_MOD
    digits = []
    for i in range(1, levels + 1):
        digit = ((shifted >> (32 - i * bg_bit)) & mask) - half_bg
        digits.append(digit.astype(np.int64))
    return digits
