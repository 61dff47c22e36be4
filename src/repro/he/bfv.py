"""Textbook BFV (Brakerski-Fan-Vercauteren) over ``Z_q[X]/(X^n+1)``.

This is the scheme the paper builds on (§2.1).  The pieces CIPHERMATCH
itself needs are encryption and coefficient-wise homomorphic addition
(Eq. 4); homomorphic multiplication + relinearization are implemented
for the arithmetic and Boolean baselines and for the prior-work
comparisons in §3.1.

A ``noiseless`` encryption mode (zero error polynomials, caller-supplied
masking polynomial ``u``) supports the paper's literal server-side
"match polynomial" comparison; :mod:`repro.core.match_polynomial`
describes the two index-generation modes and why semantically secure
ciphertexts cannot be compared directly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .keys import PublicKey, RelinKey, SecretKey
from .ntt import exact_negacyclic_convolution
from .params import BFVParams
from .poly import RingContext, RingPoly, row_dtype

#: rows per ``a * s`` pass of :meth:`BFVContext.encrypt_phase_rows`: enough
#: to amortize the NumPy dispatch of a pass, few enough that its
#: transients stay cache-resident and the largest — ``(rows, pieces,
#: n)`` 8-byte cells, 96 KiB at the paper's parameters — stays under
#: the allocator's 128 KiB mmap threshold (``docs/perf.md``, "Queries
#: under the secret key, one pass per request": the tile sweep)
_SYMMETRIC_TILE_ROWS = 6


#: SplitMix64's counter step and finalizer multipliers
_GOLDEN, _MIX1, _MIX2 = map(
    np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
)


def _keyed_uniform(rows: np.ndarray, key: np.ndarray, backend) -> np.ndarray:
    """``(R, n)`` int64 coefficients in ``[0, q)``, row ``r`` a function
    of ``rows[r]`` and the secret ``key`` alone: the row's inner product
    with ``key`` mod ``2**64`` (a universal hash) seeds a SplitMix64
    counter stream, whose words ``backend.fold`` reduces (exact at
    ``q = 2**32``, residue bias below ``q / 2**64`` elsewhere)."""
    counters = np.arange(1, rows.shape[1] + 1, dtype=np.uint64) * _GOLDEN
    x = (rows.astype(np.uint64) @ key)[:, None] + counters
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        x ^= x >> np.uint64(shift)
        x *= mul
    x ^= x >> np.uint64(31)
    return backend.fold(x.view(np.int64))


@dataclass
class Plaintext:
    """A plaintext polynomial with coefficients in ``[0, t)``."""

    params: BFVParams
    poly: RingPoly  # lives in R_t


@dataclass
class Ciphertext:
    """A (c0, c1) BFV ciphertext; ``size`` grows to 3 after tensoring."""

    params: BFVParams
    c0: RingPoly
    c1: RingPoly
    c2: Optional[RingPoly] = None

    @property
    def size(self) -> int:
        return 2 if self.c2 is None else 3

    @property
    def serialized_bytes(self) -> int:
        coeff_bytes = (self.params.log_q + 7) // 8
        return self.size * self.params.n * coeff_bytes

    def copy(self) -> "Ciphertext":
        return Ciphertext(
            self.params,
            self.c0.copy(),
            self.c1.copy(),
            self.c2.copy() if self.c2 is not None else None,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ciphertext)
            and self.c0 == other.c0
            and self.c1 == other.c1
            and self.c2 == other.c2
        )


class OperationCounter:
    """Counts homomorphic operations; the evaluation harness reads these
    to drive the op-count performance models."""

    def __init__(self) -> None:
        self.additions = 0
        self.plain_additions = 0
        self.multiplications = 0
        self.plain_multiplications = 0
        self.relinearizations = 0
        self.encryptions = 0
        self.decryptions = 0

    def snapshot(self) -> dict:
        return dict(vars(self))


class BFVContext:
    """All BFV algorithms for one parameter set."""

    def __init__(self, params: BFVParams, seed: int | None = None):
        self.params = params
        self.ring = RingContext(params.n, params.q)
        self.plain_ring = RingContext(params.n, params.t)
        self._rng = np.random.default_rng(seed)
        self.counter = OperationCounter()

    # ------------------------------------------------------------------
    # Encoding (raw coefficient vectors; higher-level packing lives in
    # repro.he.encoder / repro.core.packing)
    # ------------------------------------------------------------------

    def plaintext(self, coeffs) -> Plaintext:
        return Plaintext(self.params, self.plain_ring.make(coeffs))

    # ------------------------------------------------------------------
    # Encryption / decryption
    # ------------------------------------------------------------------

    def encrypt(
        self,
        pt: Plaintext,
        pk: PublicKey,
        *,
        noiseless: bool = False,
        u: RingPoly | None = None,
    ) -> Ciphertext:
        """Public-key BFV encryption.

        ``noiseless=True`` drops the error polynomials (e0 = e1 = 0);
        combined with a caller-supplied ``u`` this makes encryption a
        deterministic function of the message, which the paper's
        server-side index generation implicitly requires.
        """
        self.counter.encryptions += 1
        ring, params = self.ring, self.params
        backend = ring.backend
        # the masks stay centered as drawn (u, then e0, then e1): the
        # backend sizes its products from their magnitudes
        u = ring.draw_ternary(self._rng) if u is None else u.centered()
        if noiseless:
            e0 = e1 = np.zeros(params.n, dtype=np.int64)
        else:
            e0 = ring.draw_error(self._rng, params.sigma)
            e1 = ring.draw_error(self._rng, params.sigma)
        pk0_u, c1 = backend.fresh_row(pk.pk0, pk.pk1, u, e1)
        # delta * m < q for m in [0, t): one add chain, one reduction
        c0 = backend.fold(pk0_u + e0 + pt.poly.coeffs * params.delta)
        return Ciphertext(params, RingPoly(ring, c0), RingPoly(ring, c1))

    def fresh_phase_rows(self, plain_rows: np.ndarray) -> np.ndarray:
        """The decryption phases of fresh secret-key encryptions of a
        block of plaintext rows — what the key holder's fused kernel
        reads of its queries.

        ``plain_rows`` is ``(R, n)`` with coefficients in ``[0, t)``.
        Returns the ``(R, n)`` rows ``delta * m - e`` in
        :func:`~repro.he.poly.row_dtype`: one Gaussian draw and no
        product.  :meth:`encrypt_phase_rows` turns them into the
        ciphertexts whose phase they are, where a reader of ``(c0, c1)``
        needs them.
        """
        params = self.params
        plain_rows = np.asarray(plain_rows, dtype=np.int64)
        if plain_rows.ndim != 2 or plain_rows.shape[1] != params.n:
            raise ValueError(
                f"expected (rows, {params.n}) plaintext rows, got {plain_rows.shape}"
            )
        if plain_rows.size and not (
            0 <= plain_rows.min() and plain_rows.max() < params.t
        ):
            raise ValueError(f"plaintext coefficients must lie in [0, {params.t})")
        self.counter.encryptions += len(plain_rows)
        e = self.ring.draw_error(self._rng, params.sigma, len(plain_rows))
        # delta * m < q for m in [0, t)
        phases = self.ring.backend.fold(plain_rows * params.delta - e)
        return phases.astype(row_dtype(params.q))

    def encrypt_phase_rows(self, phase_rows: np.ndarray, sk: SecretKey) -> np.ndarray:
        """The ``(R, 2, n)`` secret-key ciphertexts, in
        :func:`~repro.he.poly.row_dtype`, whose phases under ``sk`` are
        the ``(R, n)`` rows of :meth:`fresh_phase_rows`: ``c1 = a``,
        ``c0 = phase - a * s`` — the same RLWE assumption as
        :meth:`encrypt`, whose ``(pk0, pk1)`` is one such pair.

        ``a`` is a function of ``s`` and the phase row
        (:func:`_keyed_uniform`), so one phase row always yields one
        ciphertext: two of one phase under different ``a`` differ by
        ``(-(a1 - a2) * s, a1 - a2)``, which gives the secret key to
        whoever adds them.  Nothing is drawn from the context's RNG.
        ``_SYMMETRIC_TILE_ROWS`` rows at a time, ``a * s`` by pieces
        against the cached spectrum of ``s`` (sized from its checked
        magnitude).
        """
        backend, n = self.ring.backend, self.params.n
        phase_rows = np.asarray(phase_rows).astype(row_dtype(self.params.q), copy=False)
        key = np.frombuffer(hashlib.shake_256(sk.s.coeffs.tobytes()).digest(8 * n), np.uint64)
        block = np.empty((len(phase_rows), 2, n), dtype=phase_rows.dtype)
        for r0 in range(0, len(phase_rows), _SYMMETRIC_TILE_ROWS):
            tile = block[r0 : r0 + _SYMMETRIC_TILE_ROWS]
            phases = phase_rows[r0 : r0 + len(tile)]
            a = _keyed_uniform(phases, key, backend)
            tile[:, 0] = backend.fold(
                phases.astype(np.int64) - backend.mul_rows_by_poly(a, sk.s)
            )
            tile[:, 1] = a
        return block

    def phase(self, ct: Ciphertext, sk: SecretKey) -> RingPoly:
        """The decryption phase ``c0 + c1 s [+ c2 s^2]`` in ``R_q`` —
        ``delta * m`` plus the ciphertext's noise.  Key-holder side
        only; counts as no operation."""
        phase = ct.c0 + ct.c1.mul_by_small(sk.s)
        if ct.c2 is not None:
            phase = phase + ct.c2 * (sk.s * sk.s)
        return phase

    def decrypt(self, ct: Ciphertext, sk: SecretKey) -> Plaintext:
        """Decrypt: ``round(t/q * (c0 + c1 s [+ c2 s^2])) mod t``."""
        self.counter.decryptions += 1
        coeffs = self._scale_to_plaintext(self.phase(ct, sk))
        return Plaintext(self.params, self.plain_ring.make(coeffs))

    def _scale_to_plaintext(self, phase: RingPoly) -> np.ndarray:
        q, t = self.params.q, self.params.t
        centered = phase.centered()
        # round(t * c / q); floor((x + q/2) / q) rounds to nearest for
        # negative x as well (numpy // is floor division, like Python's).
        if t.bit_length() + q.bit_length() <= 62:
            return (t * centered + q // 2) // q % t
        scaled = (t * centered.astype(object) + q // 2) // q % t
        return scaled.astype(np.int64)

    # ------------------------------------------------------------------
    # Homomorphic operations
    # ------------------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Hom-Add (Eq. 4): coefficient-wise polynomial addition."""
        self.counter.additions += 1
        if a.size != 2 or b.size != 2:
            raise ValueError("add expects size-2 ciphertexts (relinearize first)")
        return Ciphertext(self.params, a.c0 + b.c0, a.c1 + b.c1)

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.counter.additions += 1
        return Ciphertext(self.params, a.c0 - b.c0, a.c1 - b.c1)

    def negate(self, a: Ciphertext) -> Ciphertext:
        return Ciphertext(self.params, -a.c0, -a.c1)

    def add_plain(self, a: Ciphertext, pt: Plaintext) -> Ciphertext:
        self.counter.plain_additions += 1
        scaled = self.ring.make(pt.poly.coeffs).scalar_mul(self.params.delta)
        return Ciphertext(self.params, a.c0 + scaled, a.c1)

    def multiply_plain(self, a: Ciphertext, pt: Plaintext) -> Ciphertext:
        """Multiply by a plaintext polynomial (no delta scaling needed)."""
        self.counter.plain_multiplications += 1
        m = self.ring.make(pt.poly.coeffs)
        return Ciphertext(self.params, a.c0 * m, a.c1 * m)

    def multiply(
        self, a: Ciphertext, b: Ciphertext, rlk: RelinKey | None = None
    ) -> Ciphertext:
        """Hom-Mult: tensor over Z, scale by t/q, optionally relinearize.

        This is the operation CIPHERMATCH is designed to *avoid*; it is
        implemented for the Yasuda-style arithmetic baseline and the
        Boolean baseline's AND gates.
        """
        self.counter.multiplications += 1
        if a.size != 2 or b.size != 2:
            raise ValueError("multiply expects size-2 ciphertexts")
        q, t = self.params.q, self.params.t

        a0, a1 = a.c0.centered(), a.c1.centered()
        b0, b1 = b.c0.centered(), b.c1.centered()

        d0 = self._scale_round(exact_negacyclic_convolution(a0, b0), t, q)
        cross = exact_negacyclic_convolution(a0, b1) + exact_negacyclic_convolution(
            a1, b0
        )
        d1 = self._scale_round(cross, t, q)
        d2 = self._scale_round(exact_negacyclic_convolution(a1, b1), t, q)

        ct = Ciphertext(
            self.params,
            self.ring.make(d0),
            self.ring.make(d1),
            self.ring.make(d2),
        )
        if rlk is not None:
            ct = self.relinearize(ct, rlk)
        return ct

    def _scale_round(self, exact_coeffs: np.ndarray, t: int, q: int) -> np.ndarray:
        # The tensor coefficients exceed int64, so this stays big-int —
        # but vectorized through numpy's object loops, not Python's.
        return (t * exact_coeffs.astype(object) + q // 2) // q % q

    def relinearize(self, ct: Ciphertext, rlk: RelinKey) -> Ciphertext:
        """Key-switch the ``c2 * s^2`` term back onto (c0, c1)."""
        if ct.c2 is None:
            return ct
        self.counter.relinearizations += 1
        c0, c1 = ct.c0, ct.c1
        digits = self._decompose(ct.c2, rlk.base_bits, rlk.num_digits)
        for digit, (body, a) in zip(digits, rlk.components):
            c0 = c0 + body * digit
            c1 = c1 + a * digit
        return Ciphertext(self.params, c0, c1)

    def _decompose(
        self, poly: RingPoly, base_bits: int, num_digits: int
    ) -> list[RingPoly]:
        """Base-2**w digit decomposition of a polynomial's coefficients."""
        mask = (1 << base_bits) - 1
        coeffs = poly.coeffs  # int64 in [0, q), q <= 2**62: shifts are exact
        return [
            self.ring.make((coeffs >> (i * base_bits)) & mask)
            for i in range(num_digits)
        ]

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def noise_residual(self, ct: Ciphertext, sk: SecretKey) -> int:
        """Max |noise| of the ciphertext: distance of the decryption phase
        from the nearest lattice point ``delta * m``."""
        delta = self.params.delta
        remainders = self.phase(ct, sk).centered() % delta  # numpy %: always in [0, delta)
        distances = np.minimum(remainders, delta - remainders)
        return int(np.max(distances)) if len(distances) else 0
