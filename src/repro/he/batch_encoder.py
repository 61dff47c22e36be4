"""SIMD slot ("batching") encoder for BFV.

When the plaintext modulus ``t`` is a prime with ``t = 1 mod 2n``, the
plaintext ring ``Z_t[X]/(X^n + 1)`` splits by CRT into ``n`` independent
copies of ``Z_t`` — the *slots*.  Encoding places one ``Z_t`` value per
slot; Hom-Add and Hom-Mult then act slot-wise, which is the "SIMD
batching" of Aziz et al. [17] and Bonte & Iliashenko [29] (Table 1).

Slot order follows the SEAL convention: slots form a ``2 x n/2`` matrix
whose row ``r``, column ``j`` entry lives at the evaluation point
``psi**(+-3**j)`` (``psi`` a primitive ``2n``-th root of unity mod t),
the order in which the automorphism ``X -> X**(3**s)`` would rotate both
rows left by ``s``.
"""

from __future__ import annotations

import numpy as np

from .bfv import BFVContext, Plaintext
from .ntt import get_plan
from .params import BFVParams
from .primes import is_prime, root_of_unity


class BatchEncoder:
    """CRT slot encoder for a batching-friendly parameter set."""

    def __init__(self, params: BFVParams):
        if not is_prime(params.t):
            raise ValueError(f"batching requires a prime t, got {params.t}")
        if (params.t - 1) % (2 * params.n) != 0:
            raise ValueError(
                f"batching requires t = 1 mod 2n (t={params.t}, n={params.n})"
            )
        self.params = params
        self.n = params.n
        self.t = params.t
        self._plan = get_plan(params.n, params.t)
        self._slot_to_pos, self._pos_to_slot = self._build_slot_order()

    # ------------------------------------------------------------------
    # Slot-order bookkeeping
    # ------------------------------------------------------------------

    def _build_slot_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Map SEAL-style slot indices to the NTT plan's native output
        positions.

        The plan evaluates at ``psi**e`` for the odd exponents ``e`` in
        an internal (bit-reversed) order; we probe it with the monomial
        ``X`` — whose forward transform is exactly those evaluation
        points — to recover which exponent each position holds.
        """
        n, t = self.n, self.t
        psi = root_of_unity(2 * n, t)
        probe = np.zeros(n, dtype=np.int64)
        probe[1] = 1
        evals = self._plan.forward(probe)
        exponent_of_value = {pow(psi, e, t): e for e in range(1, 2 * n, 2)}
        pos_exponent = np.array(
            [exponent_of_value[int(v)] for v in evals], dtype=np.int64
        )
        pos_of_exponent = {int(e): i for i, e in enumerate(pos_exponent)}

        slot_to_pos = np.empty(n, dtype=np.int64)
        g = 1
        for j in range(n // 2):
            slot_to_pos[j] = pos_of_exponent[g]  # row 0: exponent +3^j
            slot_to_pos[n // 2 + j] = pos_of_exponent[(2 * n - g) % (2 * n)]
            g = g * 3 % (2 * n)
        pos_to_slot = np.empty(n, dtype=np.int64)
        pos_to_slot[slot_to_pos] = np.arange(n)
        return slot_to_pos, pos_to_slot

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, values, ctx: BFVContext) -> Plaintext:
        """Encode up to ``n`` slot values (short inputs are zero-padded)."""
        values = np.asarray(values, dtype=np.int64) % self.t
        if len(values) > self.n:
            raise ValueError(f"at most {self.n} slots, got {len(values)}")
        slots = np.zeros(self.n, dtype=np.int64)
        slots[: len(values)] = values
        native = np.empty(self.n, dtype=np.int64)
        native[self._slot_to_pos] = slots
        coeffs = self._plan.inverse(native)
        return ctx.plaintext(coeffs)

    def decode(self, pt: Plaintext) -> np.ndarray:
        """Recover the slot values of a plaintext."""
        native = self._plan.forward(pt.poly.coeffs.astype(np.int64))
        return native[self._slot_to_pos].copy()
