"""Exact polynomial arithmetic for ``R_q = Z_q[X]/(X^n+1)``.

The ring operations that dominate every hot path in this repo — the
negacyclic multiply behind encryption (``pk0 * u``), decryption
(``c1 * s``), and the deterministic comparator (``pk0 * u_total``) —
go through one backend object bound to one ``(n, q)`` pair,
:class:`VectorizedBackend` — residue-number-system (RNS) arithmetic:
the operands are decomposed into however many NTT-prime limbs the
exact product needs (``prod(p_i) > 2 n (q/2)^2``), each limb is
transformed with the vectorized iterative NTT, and the limbs are
recombined with a Garner mixed-radix reconstruction that folds
directly into ``[0, q)`` using int64-safe modular kernels — no
Python-int arithmetic anywhere on the multiply or scalar-multiply
path.  Forward NTT limb transforms are cached on the
:class:`~repro.he.poly.RingPoly` objects themselves, so repeated
products against the same polynomial (the database polynomial in the
serving inner loop, the secret key in batch decryption) transform
once and reuse.  A product with a *small* operand — the ternary mask
of an encryption, the ternary secret key of a phase — leaves the
limbs altogether: it is one exact float64 FFT
(:class:`SmallProductFft`), the mod-``q`` operand split into pieces
whose width follows the magnitude checked on the small one.

Every product is *exact*: for every supported ``(n, q)`` it returns the
coefficient vector of the big-int reference path kept as the oracle in
``tests/oracles.py``, which ``tests/he/test_backend_parity.py`` compares
against over randomized inputs, including ``q`` near the 2**62 support
cap where the RNS limb path is exercised hardest.  :class:`PolyBackend`
holds the generic exact bodies both build on.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from .ntt import get_plan
from .primes import find_ntt_primes, is_prime, mod_inverse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (poly -> backend)
    from .poly import RingPoly

#: limb primes are found just below 2**30 so every butterfly product and
#: every Garner intermediate stays comfortably inside int64.
_LIMB_PRIME_BITS = 30

#: float64 mantissa headroom for the Barrett-style quotient estimate in
#: :func:`mulmod_scalar`; see the proof sketch there.
_FLOAT_SAFE_VEC_BITS = 40
_FLOAT_SAFE_MOD_BITS = 50


def _is_native_ntt_modulus(n: int, q: int) -> bool:
    """True when ``q`` itself is an NTT-friendly prime below 2**31."""
    return q < (1 << 31) and (q - 1) % (2 * n) == 0 and is_prime(q)


# ---------------------------------------------------------------------------
# int64-safe modular kernels
# ---------------------------------------------------------------------------


def mulmod_scalar(
    vec: np.ndarray, scalar: int, q: int, *, vec_bits: int | None = None
) -> np.ndarray:
    """``vec * scalar mod q`` for an int64 vector with values in ``[0, q)``.

    Exact for every ``q`` up to the ring's 2**62 cap, without Python-int
    arithmetic, by picking the cheapest safe kernel:

    * *direct* — one fused multiply when the product provably fits int64;
    * *float-quotient* — Barrett-style: estimate ``floor(v s / q)`` in
      float64 and recover the (small) remainder with wrapping int64
      arithmetic.  The quotient estimate is within +-1 of exact whenever
      the quotient needs <= 40 bits (error ``~quot * 2**-52``) or
      ``q < 2**50`` (error ``< 2``), so the wrapped remainder stays well
      inside int64 and one final ``% q`` fixes it up;
    * *binary ladder* — ~62 vectorized double-and-reduce passes, the
      fallback for 62-bit ``q`` times 62-bit scalars.

    ``vec_bits`` bounds the bit length of the vector's values (defaults
    to the worst case ``q - 1``); callers with small values — e.g. the
    30-bit Garner digits — pass it to unlock the cheaper kernels.
    """
    scalar %= q
    if scalar == 0:
        return np.zeros_like(vec)
    if scalar == 1:
        return vec.copy()
    if vec_bits is None:
        vec_bits = (q - 1).bit_length()
    if vec_bits + scalar.bit_length() <= 63:
        return vec * scalar % q
    if vec_bits <= _FLOAT_SAFE_VEC_BITS or q.bit_length() <= _FLOAT_SAFE_MOD_BITS:
        quot = (vec.astype(np.float64) * (scalar / q)).astype(np.int64)
        # Wrapping int64 arithmetic: the true remainder has magnitude
        # < 3q < 2**63, so the wrapped difference equals it exactly.
        rem = vec * np.int64(scalar) - quot * np.int64(q)
        return rem % q
    result = np.zeros_like(vec)
    base = vec % q
    s = scalar
    while s:
        if s & 1:
            result = result + base
            result = np.where(result >= q, result - q, result)
        s >>= 1
        if s:
            base = base + base
            base = np.where(base >= q, base - q, base)
    return result


# ---------------------------------------------------------------------------
# RNS basis: limb decomposition + Garner recombination mod q
# ---------------------------------------------------------------------------


class _StackedNtt:
    """All limb NTTs in one pass: ``(k, n)`` int64 matrices with a
    per-row modulus.

    Reuses the per-prime tables of the cached :class:`~repro.he.ntt.NttPlan`
    objects but runs the butterfly stages over every limb simultaneously
    (one numpy dispatch per stage instead of per limb) and replaces the
    post-add/sub ``% p`` with lazy conditional corrections — int64
    division is the slowest vector op in the loop, while compare+subtract
    vectorizes.  Only the twiddle product needs a true reduction.
    """

    def __init__(self, plans: Sequence):
        self.n = plans[0].n
        self.p = np.array([plan.p for plan in plans], dtype=np.int64)[:, None]
        self._p3 = self.p[:, :, None]
        self._psi = np.stack([plan._psi_pows for plan in plans])
        self._ipsi = np.stack([plan._ipsi_pows for plan in plans])
        self._n_inv = np.array(
            [plan._n_inv for plan in plans], dtype=np.int64
        )[:, None]
        self._bitrev = plans[0]._bitrev
        self._tw = [
            np.stack(stage)[:, None, :]
            for stage in zip(*[plan._stage_twiddles for plan in plans])
        ]
        self._itw = [
            np.stack(stage)[:, None, :]
            for stage in zip(*[plan._stage_itwiddles for plan in plans])
        ]
        # limb-major ((k, m, n)) variants of the broadcast tables: the
        # limb axis leads and the batch axis rides in the middle, so
        # every table gains one broadcast axis after the limb axis.
        # All of these are views — no table is duplicated.
        self._p4 = self.p[:, :, None, None]
        self._psi_lm = self._psi[:, None, :]
        self._ipsi_lm = self._ipsi[:, None, :]
        self._n_inv_lm = self._n_inv[:, :, None]
        self._tw_lm = [w[:, None] for w in self._tw]
        self._itw_lm = [w[:, None] for w in self._itw]

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """(n,) signed coefficients -> (k, n) limb transforms."""
        a = (coeffs[None, :] % self.p) * self._psi % self.p
        return self._transform(a, self._tw, self._p3)

    def forward_batch_limbmajor(self, coeffs: np.ndarray) -> np.ndarray:
        """(m, n) signed coefficient rows -> (k, m, n) limb transforms,
        all rows and limbs through each butterfly stage at once.

        Limb-major output: each limb's residue matrix is one contiguous
        (m, n) slab, so the pointwise secret-key product and the Garner
        fold (both indexed per limb) read sequential memory instead of
        striding across the batch axis."""
        a = (coeffs[None, :, :] % self._p3) * self._psi_lm % self._p3
        return self._transform(a, self._tw_lm, self._p4)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        a = self._transform(values % self.p, self._itw, self._p3)
        a = a * self._n_inv % self.p
        return a * self._ipsi % self.p

    inverse_reduced = inverse

    def inverse_limbmajor(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward_batch_limbmajor`: (k, m, n) in,
        (k, m, n) out."""
        a = self._transform(values % self._p3, self._itw_lm, self._p4)
        a = a * self._n_inv_lm % self._p3
        return a * self._ipsi_lm % self._p3

    inverse_reduced_limbmajor = inverse_limbmajor

    def _transform(self, a: np.ndarray, twiddles: list, p_block) -> np.ndarray:
        # Invariant: every value stays in [0, p) per row, so the
        # butterfly sums/differences need one conditional fix-up, not a
        # division.  Twiddle products (< 2**60) fit int64.  Shapes are
        # ``(..., k, n)`` with ``p_block = (k, 1, 1)`` tables, or the
        # limb-major ``(k, m, n)`` with ``(k, 1, 1, 1)`` tables — either
        # way the per-limb tables broadcast across the batch dimension.
        a = a[..., self._bitrev].copy()
        length = 1
        for w in twiddles:
            blocks = a.reshape(a.shape[:-1] + (-1, 2 * length))
            lo = blocks[..., :length].copy()
            hi = blocks[..., length:] * w % p_block
            total = lo + hi
            blocks[..., :length] = np.where(total >= p_block, total - p_block, total)
            diff = lo - hi
            blocks[..., length:] = np.where(diff < 0, diff + p_block, diff)
            length *= 2
        return a


class _FourStepNtt:
    """Batched four-step negacyclic NTT over all limbs, with the DFT
    stages as float64 BLAS matmuls.

    The size-``n`` cyclic DFT factors as ``n = R * C``: a size-``R``
    DFT down the columns, a twiddle correction ``w^(s*c)``, and a
    size-``C`` DFT along the rows.  Each small DFT is a modular matrix
    product evaluated exactly in float64: the data operand is split into
    15-bit halves and the high half hits a pre-scaled matrix
    ``W * 2**15 mod p``, so both partial products are integer dgemms
    below ``2**30 * 2**15 * 128 <= 2**52`` (inside the float64 mantissa)
    and their sum recombines with a single float add and ONE ``% p``.
    ``R, C <= 128`` caps this at ``n <= 2**14``; larger rings fall back
    to :class:`_StackedNtt`.

    Two more folds keep elementwise passes off the hot path: the
    negacyclic ``psi^i = psi^(r*C) * psi^c`` pre-multiplication is
    absorbed into the row-DFT matrix (``psi^(r*C)``, a column scaling)
    and the twiddle matrix (``psi^c``), and symmetrically for the
    inverse — so forward/inverse never touch the coefficients outside
    the two matmuls and the twiddle product.

    The transform emits values in digit-permuted order.  That is fine
    for convolution — ``inverse`` is the exact functional inverse of
    ``forward``, and pointwise products commute with any fixed
    permutation — and saves the final transpose pass.
    """

    _SPLIT = 15
    _MASK = (1 << _SPLIT) - 1

    def __init__(self, plans: Sequence):
        self.n = n = plans[0].n
        self.p = np.array([plan.p for plan in plans], dtype=np.int64)[:, None]
        self._p3 = self.p[:, :, None]
        self._p4 = self.p[:, :, None, None]
        self.R = 1 << (n.bit_length() - 1) // 2
        self.C = n // self.R
        assert max(self.R, self.C) <= 128, "four-step needs R, C <= 128"

        def fold_split(mats: List[np.ndarray]):
            """Stack per-limb int matrices into the (lo, hi) float pair:
            ``lo = W mod p`` and ``hi = W * 2**15 mod p``."""
            lo, hi = [], []
            for mat, plan in zip(mats, plans):
                lo.append(mat.astype(np.float64))
                hi.append((mat << self._SPLIT) % plan.p)
            return np.stack(lo), np.stack([h.astype(np.float64) for h in hi])

        def dft_matrices(rows: int, root_power: int, invert: bool, fold_psi: str):
            """Per-limb (rows x rows) DFT matrices; ``fold_psi`` scales
            columns ("cols") or rows ("rows") by ``psi^(+-r*C)``."""
            mats = []
            for plan in plans:
                p = plan.p
                psi = int(plan._psi_pows[1])
                omega = pow(psi, 2 * root_power, p)
                if invert:
                    omega = mod_inverse(omega, p)
                exps = np.arange(rows, dtype=np.int64)
                pows = self._powers(omega, rows, p)
                mat = pows[exps[:, None] * exps[None, :] % rows]
                if invert:
                    mat = mat * mod_inverse(rows, p) % p
                if fold_psi:
                    base = psi if not invert else mod_inverse(psi, p)
                    scale = self._powers(pow(base, self.C, p), rows, p)
                    if fold_psi == "cols":
                        mat = mat * scale[None, :] % p
                    else:
                        mat = mat * scale[:, None] % p
                mats.append(mat)
            return fold_split(mats)

        def twiddles(invert: bool):
            """``psi^(+-c) * omega^(+-s*c)`` — the inter-stage twiddle
            with the column part of the negacyclic fold absorbed."""
            mats = []
            for plan in plans:
                p = plan.p
                psi = int(plan._psi_pows[1])
                omega = pow(psi, 2, p)
                if invert:
                    psi = mod_inverse(psi, p)
                    omega = mod_inverse(omega, p)
                pows = self._powers(omega, n, p)
                s = np.arange(self.R, dtype=np.int64)[:, None]
                c = np.arange(self.C, dtype=np.int64)[None, :]
                psi_c = self._powers(psi, self.C, p)[None, :]
                mats.append(pows[s * c % n] * psi_c % p)
            return np.stack(mats)

        self._wr = dft_matrices(self.R, self.C, invert=False, fold_psi="cols")
        self._wc = dft_matrices(self.C, self.R, invert=False, fold_psi="")
        self._wr_inv = dft_matrices(self.R, self.C, invert=True, fold_psi="rows")
        self._wc_inv = dft_matrices(self.C, self.R, invert=True, fold_psi="")
        self._tw = twiddles(invert=False)
        self._tw_inv = twiddles(invert=True)

    @staticmethod
    def _powers(base: int, count: int, p: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        acc = 1
        for i in range(count):
            out[i] = acc
            acc = acc * base % p
        return out

    def _mm_left(self, w: Tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
        """``W @ x mod p``: 15-bit-split data against (lo, hi) matrices."""
        lo, hi = w
        acc = np.matmul(hi, (x >> self._SPLIT).astype(np.float64))
        acc += np.matmul(lo, (x & self._MASK).astype(np.float64))
        return acc.astype(np.int64) % self._p3

    def _mm_right(self, x: np.ndarray, w: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        lo, hi = w
        acc = np.matmul((x >> self._SPLIT).astype(np.float64), hi)
        acc += np.matmul((x & self._MASK).astype(np.float64), lo)
        return acc.astype(np.int64) % self._p3

    def _mm_left_lm(self, w, x: np.ndarray) -> np.ndarray:
        """Limb-major ``W @ x mod p``: x is (k, m, R, C), the per-limb
        matrices broadcast over the batch axis."""
        lo, hi = w
        acc = np.matmul(hi[:, None], (x >> self._SPLIT).astype(np.float64))
        acc += np.matmul(lo[:, None], (x & self._MASK).astype(np.float64))
        return acc.astype(np.int64) % self._p4

    def _mm_right_lm(self, x: np.ndarray, w) -> np.ndarray:
        lo, hi = w
        acc = np.matmul((x >> self._SPLIT).astype(np.float64), hi[:, None])
        acc += np.matmul((x & self._MASK).astype(np.float64), lo[:, None])
        return acc.astype(np.int64) % self._p4

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """(n,) signed coefficients -> (k, n) digit-permuted transforms."""
        a = (coeffs[None, :] % self.p).reshape(-1, self.R, self.C)
        y = self._mm_left(self._wr, a)
        y = y * self._tw % self._p3
        z = self._mm_right(y, self._wc)
        return z.reshape(-1, self.n)

    def forward_batch_limbmajor(self, coeffs: np.ndarray) -> np.ndarray:
        """(m, n) signed coefficient rows -> (k, m, n) transforms: the
        per-limb DFT matrices and twiddles broadcast over the batch
        axis, so the whole batch rides the same two dgemm chains, and
        the limb axis leads so each limb's transforms land in one
        contiguous slab."""
        m = coeffs.shape[0]
        a = (coeffs[None, :, :] % self._p3).reshape(-1, m, self.R, self.C)
        y = self._mm_left_lm(self._wr, a)
        y = y * self._tw[:, None] % self._p4
        z = self._mm_right_lm(y, self._wc)
        return z.reshape(-1, m, self.n)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return self.inverse_reduced(values % self.p)

    def inverse_reduced(self, values: np.ndarray) -> np.ndarray:
        """Inverse for inputs already reduced to [0, p) per limb — the
        shape the pointwise product emits.  Accepts ``(k, n)`` or a
        batched ``(m, k, n)``; leading dimensions are preserved."""
        z = values.reshape(values.shape[:-1] + (self.R, self.C))
        y = self._mm_right(z, self._wc_inv)
        y = y * self._tw_inv % self._p3
        a = self._mm_left(self._wr_inv, y)
        return a.reshape(values.shape)

    def inverse_reduced_limbmajor(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`forward_batch_limbmajor`: reduced (k, m, n)
        in, (k, m, n) out."""
        k, m = values.shape[0], values.shape[1]
        z = values.reshape(k, m, self.R, self.C)
        y = self._mm_right_lm(z, self._wc_inv)
        y = y * self._tw_inv[:, None] % self._p4
        a = self._mm_left_lm(self._wr_inv, y)
        return a.reshape(values.shape)


#: four-step pays off once the matmuls amortize their setup; below this
#: the stage-by-stage stacked butterflies win.
_FOUR_STEP_MIN_N = 128
_FOUR_STEP_MAX_N = 1 << 14


class RnsBasis:
    """NTT-prime limb basis for exact negacyclic products in ``R_q``.

    The basis holds ``k`` distinct NTT-friendly primes just below 2**30
    whose product exceeds twice the worst-case product coefficient
    ``n * (q // 2)**2`` (operands are centered before decomposition), so
    the integer convolution is recovered exactly from its residues.
    When ``q`` itself is an NTT-friendly prime below 2**31 the basis
    degenerates to the single native limb ``[q]`` and recombination is
    the identity.  Transforms carry all limbs together as ``(k, n)``
    matrices (:class:`_StackedNtt`).
    """

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.native = _is_native_ntt_modulus(n, q)
        if self.native:
            self.primes: Tuple[int, ...] = (q,)
            self.modulus = q
        else:
            bound = 2 * n * (q // 2) ** 2
            count = 1
            while True:
                primes = find_ntt_primes(_LIMB_PRIME_BITS, n, count)
                modulus = math.prod(primes)
                if modulus > bound:
                    break
                count += 1
            self.primes = tuple(primes)
            self.modulus = modulus
            # Garner precomputation: prefix-product inverses, cross
            # residues of earlier primes, mixed-radix digits of M // 2
            # for the sign test, and the fold constants P_i mod q.
            self._prefix_inv: List[int] = [0]
            self._cross: List[Tuple[int, ...]] = [()]
            prefix = 1
            fold = []
            for i, p in enumerate(self.primes):
                if i:
                    self._prefix_inv.append(mod_inverse(prefix % p, p))
                    self._cross.append(
                        tuple(pj % p for pj in self.primes[:i])
                    )
                fold.append(prefix % q)
                prefix *= p
            # Garner reductions of a previous digit (< p_{i-1}) into the
            # next prime can use one conditional subtract instead of a
            # division whenever p_{i-1} < 2 * p_i (always true for our
            # near-2**30 prime clusters, but guarded anyway).
            self._lazy_step = tuple(
                i > 0 and self.primes[i - 1] < 2 * self.primes[i]
                for i in range(len(self.primes))
            )
            self._fold_consts = tuple(fold)
            self._m_mod_q = self.modulus % q
            half = self.modulus // 2
            half_digits = []
            for p in self.primes:
                half_digits.append(half % p)
                half //= p
            self._half_digits = tuple(half_digits)
            # Power-of-two q (the paper's 2**32): q divides 2**64, so
            # the digit fold can run in wrapping uint64 arithmetic and
            # finish with a mask — no modular multiplies at all.
            self._q_pow2_mask = None
            if q & (q - 1) == 0:
                self._q_pow2_mask = np.uint64(q - 1)
                wrap = (1 << 64) - 1
                prefix = 1
                fold64 = []
                for p in self.primes:
                    fold64.append(np.uint64(prefix & wrap))
                    prefix *= p
                self._fold64 = tuple(fold64)
                self._m64 = np.uint64(self.modulus & wrap)
        # When the limb product also covers *uncentered* operands
        # (|x| <= q-1 instead of q/2), the centering passes can be
        # skipped entirely — reconstruction recovers the exact integer
        # either way and both reduce to the same value mod q.  Native
        # single-limb arithmetic is mod q itself, so centering never
        # changes anything there.
        self.center_needed = (
            not self.native and self.modulus <= 2 * n * (q - 1) ** 2
        )
        self.plans = tuple(get_plan(n, p) for p in self.primes)
        # The four-step float64 exactness bound needs every limb below
        # 2**30 (partial sums <= 2**30 * 2**15 * 128 = 2**52): the RNS
        # limbs always are, but a *native* prime modulus can reach 2**31
        # and must take the stacked butterflies instead.
        if _FOUR_STEP_MIN_N <= n <= _FOUR_STEP_MAX_N and max(self.primes) < (
            1 << _LIMB_PRIME_BITS
        ):
            self._stacked = _FourStepNtt(self.plans)
        else:
            self._stacked = _StackedNtt(self.plans)

    # -- transforms ------------------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Forward negacyclic NTT of a (possibly signed) vector across
        all limbs at once: ``(n,) -> (k, n)``."""
        return self._stacked.forward(coeffs)

    def forward_batch(self, rows: np.ndarray) -> np.ndarray:
        """Forward NTT of ``m`` coefficient rows in one stacked pass,
        limb-major: ``(m, n) -> (k, m, n)``, so the pointwise products
        and the Garner recombination (both per-limb loops) read
        contiguous slabs."""
        if rows.shape[0] == 0:
            return np.empty((len(self.primes), 0, self.n), dtype=np.int64)
        return self._stacked.forward_batch_limbmajor(rows)

    def forward_pair(self, a: np.ndarray, b: np.ndarray):
        """Transform both operands of one product in a single batch."""
        both = self.forward_batch(np.stack([a, b]))
        return both[:, 0], both[:, 1]

    def pointwise(self, fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
        return fa * fb % self._stacked.p

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return self._stacked.inverse(values)

    # -- recombination ---------------------------------------------------

    def combine_mod_q(self, residues) -> np.ndarray:
        """CRT-reconstruct the centered integer vector and reduce mod q.

        Garner's algorithm produces mixed-radix digits ``v_i < p_i``
        (every intermediate fits int64: products are < 2**60), the sign
        of the centered representative is read off by a vectorized
        lexicographic compare against the digits of ``M // 2``, and the
        digits are folded into ``[0, q)`` with :func:`mulmod_scalar`.

        ``residues`` is indexed ``[limb, ...]``: the classic single
        vector is ``(k, n)`` and the batched form ``(k, m, n)`` — every
        step is elementwise, so the digit shape just rides along.
        """
        residues = np.asarray(residues)
        if self.native:
            return residues[0]
        q = self.q
        shape = residues.shape[1:]
        digits: List[np.ndarray] = [residues[0]]
        for i in range(1, len(self.primes)):
            p = self.primes[i]
            cross = self._cross[i]
            if self._lazy_step[i]:
                acc = digits[i - 1]
                acc = np.where(acc >= p, acc - p, acc)
            else:
                acc = digits[i - 1] % p
            for j in range(i - 2, -1, -1):
                acc = (acc * cross[j] + digits[j]) % p
            t = residues[i] - acc  # both < p: one conditional fix-up
            t = np.where(t < 0, t + p, t)
            digits.append(t * self._prefix_inv[i] % p)

        negative = np.zeros(shape, dtype=bool)
        undecided = np.ones(shape, dtype=bool)
        for i in range(len(self.primes) - 1, -1, -1):
            h = self._half_digits[i]
            negative |= undecided & (digits[i] > h)
            undecided &= digits[i] == h

        if self._q_pow2_mask is not None:
            acc = np.zeros(shape, dtype=np.uint64)
            for digit, const in zip(digits, self._fold64):
                acc += digit.astype(np.uint64) * const
            acc -= np.where(negative, self._m64, np.uint64(0))
            return (acc & self._q_pow2_mask).astype(np.int64)

        out = np.zeros(shape, dtype=np.int64)
        for digit, const in zip(digits, self._fold_consts):
            if const:
                out = (
                    out
                    + mulmod_scalar(digit, const, q, vec_bits=_LIMB_PRIME_BITS)
                ) % q
        return np.where(negative, (out - self._m_mod_q) % q, out)

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact negacyclic product of two centered int64 vectors, mod q."""
        fa, fb = self.forward_pair(a, b)
        return self.combine_mod_q(
            self._stacked.inverse_reduced(self.pointwise(fa, fb))
        )

    def mul_rows_by(self, rows: np.ndarray, f_poly: np.ndarray) -> np.ndarray:
        """Exact negacyclic product of every row of ``(m, n)`` against
        one transformed polynomial ``(k, n)``, mod q — the fused-kernel
        primitive behind batch decryption (``c1 * s`` over all result
        rows) and the batched deterministic comparator (``pk0 * u``).

        One stacked forward pass, one broadcast pointwise product, one
        stacked inverse, one batched Garner recombination.  Runs
        limb-major end-to-end: the inverse hands :meth:`combine_mod_q`
        its ``(k, m, n)`` residues directly, with no strided
        ``moveaxis`` view between the NTT and the Garner fold.
        """
        if rows.shape[0] == 0:
            return np.empty((0, self.n), dtype=np.int64)
        limbs = self.forward_batch(rows)
        prod = limbs * f_poly[:, None, :] % self._stacked.p[..., None]
        inv = self._stacked.inverse_reduced_limbmajor(prod)
        return self.combine_mod_q(inv)


@lru_cache(maxsize=32)
def get_rns_basis(n: int, q: int) -> RnsBasis:
    """Cached basis lookup — bases are shared across equal rings, which
    also lets NTT caches survive between :class:`RingContext` instances
    with the same ``(n, q)``."""
    return RnsBasis(n, q)


# ---------------------------------------------------------------------------
# Small-operand products: one exact float64 FFT
# ---------------------------------------------------------------------------

#: the one error-budget constant: the a-priori bound on the float64
#: error of any coefficient handed to the rounding stays <= 2**-8 ...
_FFT_ERROR_BITS = 8
#: ... and a rounded coefficient further than this from its float value
#: raises instead of returning (1/2 is where rounding would go wrong)
_FFT_RESIDUAL_GUARD = 1 / 16
#: pieces narrower than this mean the "small" operand is not small: the
#: general RNS product takes over
_MIN_PIECE_BITS = 8


class SmallProductFft:
    """Exact negacyclic products ``a * b`` in ``Z[X]/(X^n + 1)`` where
    ``b`` is *small*, through a half-size complex float64 FFT.

    Fold ``X^(n/2) -> i``: the real vector ``a`` becomes the complex
    ``z_j = a_j + i a_(j + n/2)``, an element of
    ``C[Y]/(Y^(n/2) - i)``; the twist ``z_j e^(i pi j / n)`` turns that
    ring into the cyclic ``C[Y]/(Y^(n/2) - 1)``, where a product is a
    pointwise product of ``np.fft`` transforms over ``n/2`` points.

    The float result is rounded to the exact integer.  A-priori
    (``docs/perf.md``, "Small-operand products"): ``|error| <=
    3 * 5 (log2(n/2) + 1) 2**-53 * n A B`` per coefficient for
    ``|a_j| <= A``, ``|b_j| <= B``; :attr:`limit` is the largest
    ``A * B`` that keeps this ``<= 2**-8``, and a mod-``q`` operand
    enters as unsigned pieces of ``bits`` bits with
    ``2**bits * B <= limit`` (:meth:`plan`, a function of ``n``, ``q``
    and the *checked* magnitude ``B`` alone).  Every inverse checks its
    largest distance to an integer and raises :class:`ArithmeticError`
    beyond 1/16.
    """

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self.half = half = n // 2
        self._twist = np.exp(1j * np.pi * np.arange(half) / n)
        self._untwist = np.conj(self._twist)
        self.limit = (1 << (53 - _FFT_ERROR_BITS)) // (15 * half.bit_length() * n)
        self._q_bits = (q - 1).bit_length()
        #: bit length of the largest exact coefficient of one inverse
        self._part_bits = (n * self.limit).bit_length()

    def plan(self, magnitude: int) -> "Tuple[int, int] | None":
        """``(bits, pieces)`` for a mod-``q`` operand against a small
        one of centered magnitude ``<= magnitude``: the fewest equal
        pieces within the error budget, or ``None`` when they would be
        narrower than 8 bits (take the general product)."""
        widest = (self.limit // max(magnitude, 1)).bit_length() - 1
        if widest < _MIN_PIECE_BITS:
            return None
        pieces = max(-(-self._q_bits // widest), 1)
        return -(-self._q_bits // pieces), pieces

    def split(self, coeffs: np.ndarray, bits: int, pieces: int) -> np.ndarray:
        """``(..., n)`` values in ``[0, q)`` -> ``(..., pieces, n)``
        unsigned ``bits``-bit pieces, least significant first."""
        shifts = np.arange(pieces, dtype=np.int64)[:, None] * bits
        return (coeffs[..., None, :] >> shifts) & ((1 << bits) - 1)

    def forward(self, rows: np.ndarray) -> np.ndarray:
        """``(..., n)`` integer rows -> ``(..., n/2)`` spectra."""
        half = self.half
        z = np.empty(rows.shape[:-1] + (half,), dtype=np.complex128)
        z.real = rows[..., :half]
        z.imag = rows[..., half:]
        z *= self._twist
        return np.fft.fft(z, axis=-1)

    def inverse(self, spectra: np.ndarray) -> np.ndarray:
        """``(..., n/2)`` product spectra -> ``(..., n)`` exact int64
        coefficients (rounded, residual guarded)."""
        z = np.fft.ifft(spectra, axis=-1)
        z *= self._untwist
        values = np.concatenate([z.real, z.imag], axis=-1)
        exact = np.rint(values)
        values -= exact
        residual = max(values.max(), -values.min())
        if not residual <= _FFT_RESIDUAL_GUARD:
            raise ArithmeticError(
                f"float64 FFT product left a rounding residual of {residual}"
                f" (guard {_FFT_RESIDUAL_GUARD}) at n={self.n}"
            )
        return exact.astype(np.int64)

    def join(self, parts: np.ndarray, bits: int) -> np.ndarray:
        """``sum_k parts[..., k, :] * 2**(k * bits) mod q`` for signed
        exact piece products: wrapping uint64 shifts and one mask at a
        power-of-two ``q`` (``q`` divides ``2**64``), a
        :func:`mulmod_scalar` step on the magnitudes elsewhere —
        overflow-free for every ``q <= 2**62``."""
        q = self.q
        pieces = parts.shape[-2]
        if q & (q - 1) == 0:
            acc = parts[..., 0, :].astype(np.uint64)
            for k in range(1, pieces):
                acc += parts[..., k, :].astype(np.uint64) << np.uint64(k * bits)
            return (acc & np.uint64(q - 1)).astype(np.int64)
        acc = parts[..., 0, :] % q
        vec_bits = min(self._part_bits, self._q_bits)
        for k in range(1, pieces):
            part = parts[..., k, :]
            term = mulmod_scalar(
                np.abs(part) % q, pow(2, k * bits, q), q, vec_bits=vec_bits
            )
            acc = (acc + np.where(part < 0, -term, term)) % q
        return acc


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class PolyBackend:
    """Arithmetic strategy bound to one ``(n, q)`` pair.

    Subclasses implement ``mul`` / ``scalar_mul``;
    the representation changes (``make`` / ``centered``)
    and the generic product bodies are shared by
    :class:`VectorizedBackend` (its fallback when an operand is not
    small) and the test oracle: coefficients are int64 in ``[0, q)``
    (the 2**62 modulus cap guarantees the centered lift fits int64 as
    well).
    """

    name = "abstract"

    def __init__(self, n: int, q: int):
        self.n = n
        self.q = q
        self._half = q // 2

    # -- representation (shared, exact) ----------------------------------

    def make(self, coeffs) -> np.ndarray:
        """Reduce an arbitrary coefficient vector into int64 ``[0, q)``."""
        arr = np.asarray(coeffs)
        if arr.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} coefficients, got shape {arr.shape}"
            )
        if arr.dtype == object:
            # Vectorized big-int reduction (numpy loops in C over the
            # Python ints); the quotients fit int64 once reduced.
            return (arr % self.q).astype(np.int64)
        return arr.astype(np.int64) % self.q

    def fold(self, values: np.ndarray) -> np.ndarray:
        """int64 values of either sign into ``[0, q)``: a mask at a
        power-of-two ``q`` (two's complement), one floor-mod elsewhere."""
        q = self.q
        return values & (q - 1) if q & (q - 1) == 0 else values % q

    def centered(self, coeffs: np.ndarray) -> np.ndarray:
        """Lift ``[0, q)`` to the centered interval ``(-q/2, q/2]``."""
        return np.where(coeffs > self._half, coeffs - self.q, coeffs)

    # -- arithmetic (backend-specific) ------------------------------------

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mul_poly(self, a: "RingPoly", b: "RingPoly") -> np.ndarray:
        """Polynomial-level multiply hook; lets caching backends stash
        transform-domain representations on the operands."""
        return self.mul(a.coeffs, b.coeffs)

    def mul_by_small(
        self, polys: Sequence["RingPoly"], small: "RingPoly"
    ) -> np.ndarray:
        """``poly * small`` for every ``poly``, as ``(len(polys), n)``
        coefficient rows, where ``small`` is expected to have small
        centered coefficients (a ternary mask or secret key).  The same
        values as :meth:`mul_poly`; a backend may pick cheaper
        arithmetic from a bound it checks on ``small``."""
        return np.stack([self.mul_poly(poly, small) for poly in polys])

    def fresh_row(
        self, pk0: "RingPoly", pk1: "RingPoly", u: np.ndarray, e1: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ring products of one fresh public-key encryption:
        ``pk0 * u`` and ``c1 = pk1 * u + e1`` — coefficient rows mod q.
        ``u`` and ``e1`` are *centered* int64 coefficient vectors, as
        the samplers draw them."""
        u = self.fold(u)
        return self.mul(pk0.coeffs, u), self.fold(self.mul(pk1.coeffs, u) + e1)

    def mul_rows_by_poly(self, rows: np.ndarray, poly: "RingPoly") -> np.ndarray:
        """Every ``(m, n)`` coefficient row (values in ``[0, q)``) times
        one polynomial, mod q."""
        if rows.shape[0] == 0:
            return np.empty((0, self.n), dtype=np.int64)
        return np.stack([self.mul(row, poly.coeffs) for row in rows])

    def scalar_mul(self, coeffs: np.ndarray, scalar: int) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, q={self.q})"


class VectorizedBackend(PolyBackend):
    """RNS/NTT arithmetic with no Python-int math on any hot path.

    The limb basis is built lazily on the first multiply (plaintext
    rings rarely multiply, and the prime search is the expensive part of
    construction).  Forward limb transforms of the *centered* operand
    are cached on the ``RingPoly`` under its ``_ntt`` slot, keyed by the
    shared basis object, so a database polynomial or secret key is
    transformed once per process no matter how many products it enters.
    """

    name = "vectorized"

    def __init__(self, n: int, q: int):
        super().__init__(n, q)
        self._basis: RnsBasis | None = None
        self.fft = SmallProductFft(n, q)

    @property
    def basis(self) -> RnsBasis:
        if self._basis is None:
            self._basis = get_rns_basis(self.n, self.q)
        return self._basis

    # -- multiply ---------------------------------------------------------

    def _forward_cached(self, poly: "RingPoly") -> np.ndarray:
        """Limb transforms of ``poly``'s lift, kept on the polynomial."""
        basis = self.basis
        transforms = poly._ntt.get(basis) if poly._ntt else None
        if transforms is None:
            transforms = basis.forward(self._lift(poly.coeffs))
            self._remember(poly, basis, transforms)
        return transforms

    @staticmethod
    def _remember(poly: "RingPoly", key, transforms) -> None:
        """Keep a transform on ``poly._ntt``: under the basis for limb
        transforms, under the ``(bits, pieces)`` plan for piece spectra,
        under ``"small"`` for a small operand's own."""
        if poly._ntt is None:
            poly._ntt = {}
        poly._ntt[key] = transforms

    def _lift(self, coeffs: np.ndarray) -> np.ndarray:
        """Representation fed to the limb transforms: centered when the
        basis bound requires it, raw [0, q) otherwise."""
        return self.centered(coeffs) if self.basis.center_needed else coeffs

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        basis = self.basis
        return basis.multiply(self._lift(a), self._lift(b))

    def mul_poly(self, a: "RingPoly", b: "RingPoly") -> np.ndarray:
        basis = self.basis
        if (
            not (a._ntt and basis in a._ntt)
            and not (b._ntt and basis in b._ntt)
            and a is not b
        ):
            fa, fb = basis.forward_pair(self._lift(a.coeffs), self._lift(b.coeffs))
            self._remember(a, basis, fa)
            self._remember(b, basis, fb)
        else:
            fa = self._forward_cached(a)
            fb = self._forward_cached(b)
        return basis.combine_mod_q(
            basis._stacked.inverse_reduced(basis.pointwise(fa, fb))
        )

    # -- small-operand products -------------------------------------------

    def _measured(self, centered: np.ndarray) -> Tuple[int, "np.ndarray | None"]:
        """``(magnitude, spectrum)`` of a centered vector: the *checked*
        bound every plan is chosen from, and the transform a small
        operand enters FFT products with — ``None`` when it is not
        small enough for any."""
        magnitude = int(np.abs(centered).max())
        small = self.fft.plan(magnitude) is not None
        return magnitude, self.fft.forward(centered) if small else None

    def _small_spectrum(self, poly: "RingPoly") -> Tuple[int, "np.ndarray | None"]:
        """:meth:`_measured` of ``poly``'s centered lift, kept on it."""
        held = poly._ntt.get("small") if poly._ntt else None
        if held is None:
            held = self._measured(self.centered(poly.coeffs))
            self._remember(poly, "small", held)
        return held

    def _piece_spectra(self, poly: "RingPoly", plan: Tuple[int, int]) -> np.ndarray:
        """``(pieces, n/2)`` spectra of a mod-``q`` operand split per
        ``plan``, kept on the polynomial per plan."""
        spectra = poly._ntt.get(plan) if poly._ntt else None
        if spectra is None:
            spectra = self.fft.forward(self.fft.split(poly.coeffs, *plan))
            self._remember(poly, plan, spectra)
        return spectra

    def mul_by_small(
        self, polys: Sequence["RingPoly"], small: "RingPoly"
    ) -> np.ndarray:
        """Every ``poly * small`` through one stacked inverse FFT,
        sharing ``small``'s one spectrum, with ``poly`` split as the
        *checked* magnitude of ``small`` allows (two 16-bit pieces for a
        ternary mask or key at the paper's parameters).  A ``small``
        that is not small gets the general products: nothing wraps.
        """
        magnitude, f_small = self._small_spectrum(small)
        if f_small is None:
            return super().mul_by_small(polys, small)
        plan = self.fft.plan(magnitude)
        spectra = np.stack([self._piece_spectra(p, plan) for p in polys])
        return self.fft.join(self.fft.inverse(spectra * f_small), plan[0])

    def fresh_row(
        self, pk0: "RingPoly", pk1: "RingPoly", u: np.ndarray, e1: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A fresh row from one forward FFT of ``u`` and one stacked
        inverse of ``2 * pieces`` rows: ``pk0 u`` and ``pk1 u`` by
        pieces, the width following the checked magnitude of ``u``; a
        ``u`` too large for 8-bit pieces takes the general products.
        Nothing wraps, and ``e1`` is never transformed.
        """
        fft = self.fft
        plan = fft.plan(int(np.abs(u).max()))
        if plan is None:
            return super().fresh_row(pk0, pk1, u, e1)
        bits, pieces = plan
        f_u = fft.forward(u)
        work = np.empty((2 * pieces, fft.half), dtype=np.complex128)
        np.multiply(self._piece_spectra(pk0, plan), f_u, out=work[:pieces])
        np.multiply(self._piece_spectra(pk1, plan), f_u, out=work[pieces:])
        parts = fft.inverse(work)
        return (
            fft.join(parts[:pieces], bits),
            self.fold(fft.join(parts[pieces:], bits) + e1),
        )

    def mul_rows_by_poly(self, rows: np.ndarray, poly: "RingPoly") -> np.ndarray:
        """Batched, bit-identical to ``m`` separate :meth:`mul_poly`
        calls: a small ``poly`` (the secret key of a batch decryption
        or of the database phases) takes the FFT product, its one
        spectrum reused; any other the general limb-major pipeline, its
        NTT cached as on the scalar path."""
        magnitude, f_poly = self._small_spectrum(poly)
        if f_poly is None or rows.shape[0] == 0:
            return self.basis.mul_rows_by(
                self._lift(rows), self._forward_cached(poly)
            )
        plan = self.fft.plan(magnitude)
        spectra = self.fft.forward(self.fft.split(rows, *plan))
        return self.fft.join(self.fft.inverse(spectra * f_poly), plan[0])

    # -- other ops --------------------------------------------------------

    def scalar_mul(self, coeffs: np.ndarray, scalar: int) -> np.ndarray:
        return mulmod_scalar(coeffs, scalar % self.q, self.q)
