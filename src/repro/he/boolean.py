"""Boolean-mode homomorphic encryption — the TFHE stand-in.

The paper's Boolean baseline [17, 33] encrypts every bit into its own
TFHE ciphertext and evaluates XNOR/AND gates.  A faithful TFHE (gate
bootstrapping over the torus) is out of scope for a pure-Python repo, so
this module provides the same *interface and cost structure* on top of
BFV with plaintext modulus ``t = 2``:

* one bit per ciphertext (so the >200x footprint blow-up is real),
* ``XNOR(a, b) = a + b + 1 (mod 2)`` — one Hom-Add plus a plain add,
* ``AND(a, b) = a * b`` — one Hom-Mult + relinearization,
* a :class:`GateCostModel` carrying TFHE-like per-gate latencies for the
  performance figures (functional runs at small scale; figure-scale
  numbers come from the cost model).

Noise grows with AND depth (BFV is levelled, unlike bootstrapped TFHE);
:meth:`BooleanContext.and_reduce` therefore balances the reduction tree,
and tests pick parameters with enough budget for the depths exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .bfv import BFVContext, Ciphertext
from .keys import PublicKey, RelinKey, SecretKey
from .params import BFVParams


@dataclass(frozen=True)
class GateCostModel:
    """Per-gate execution costs used by the evaluation models.

    Defaults approximate TFHE-rs gate bootstrapping on the paper's Xeon
    (order 10 ms/gate single-threaded) with the SIMD batching factor of
    Aziz et al. [17] folded in by the caller.
    """

    gate_latency_s: float = 10.0e-3
    gate_energy_j: float = 1.05  # ~105 W socket * 10 ms
    ciphertext_bytes: int = 2048  # one LWE ciphertext per bit

    def time_for_gates(self, gates: float, batching: float = 1.0) -> float:
        return gates * self.gate_latency_s / max(batching, 1.0)


class BooleanContext:
    """Bit-level homomorphic gates over BFV(t=2) ciphertexts."""

    def __init__(
        self, params: BFVParams | None = None, seed: int | None = None
    ):
        params = params or BFVParams.boolean_baseline()
        if params.t != 2:
            raise ValueError("Boolean mode requires t = 2")
        self.ctx = BFVContext(params, seed)
        self.params = params
        self._one_pt = self.ctx.plaintext(self._unit_coeffs())
        self.gate_counts = {"xnor": 0, "xor": 0, "and": 0, "or": 0, "not": 0}

    def _unit_coeffs(self) -> np.ndarray:
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        coeffs[0] = 1
        return coeffs

    # -- bit encryption ---------------------------------------------------

    def encrypt_bit(self, bit: int, pk: PublicKey) -> Ciphertext:
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        coeffs[0] = bit & 1
        return self.ctx.encrypt(self.ctx.plaintext(coeffs), pk)

    def encrypt_bits(self, bits: Sequence[int], pk: PublicKey) -> List[Ciphertext]:
        return [self.encrypt_bit(int(b), pk) for b in bits]

    def decrypt_bit(self, ct: Ciphertext, sk: SecretKey) -> int:
        return int(self.ctx.decrypt(ct, sk).poly.coeffs[0]) & 1

    # -- gates -------------------------------------------------------------

    def xor(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        self.gate_counts["xor"] += 1
        return self.ctx.add(a, b)

    def xnor(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """a XNOR b = a + b + 1 over GF(2) — addition only."""
        self.gate_counts["xnor"] += 1
        return self.ctx.add_plain(self.ctx.add(a, b), self._one_pt)

    def not_(self, a: Ciphertext) -> Ciphertext:
        self.gate_counts["not"] += 1
        return self.ctx.add_plain(a, self._one_pt)

    def and_(self, a: Ciphertext, b: Ciphertext, rlk: RelinKey) -> Ciphertext:
        self.gate_counts["and"] += 1
        return self.ctx.multiply(a, b, rlk)

    def or_(self, a: Ciphertext, b: Ciphertext, rlk: RelinKey) -> Ciphertext:
        """a OR b = NOT(NOT a AND NOT b)."""
        self.gate_counts["or"] += 1
        return self.not_(self.and_(self.not_(a), self.not_(b), rlk))

    def and_reduce(self, bits: List[Ciphertext], rlk: RelinKey) -> Ciphertext:
        """Balanced AND tree — log2(len) multiplicative depth."""
        if not bits:
            raise ValueError("empty AND reduction")
        layer = list(bits)
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(self.and_(layer[i], layer[i + 1], rlk))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    # -- bookkeeping --------------------------------------------------------

    def total_gates(self) -> int:
        return sum(self.gate_counts.values())
