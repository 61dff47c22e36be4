"""The Boolean-approach baseline on *real* TFHE gate bootstrapping.

:mod:`repro.baselines.boolean_match` evaluates the per-bit XNOR/AND
circuit on the BFV Boolean mode (the documented TFHE stand-in).  This
module runs the identical circuit on :mod:`repro.tfhe`, the from-scratch
gate-bootstrapping implementation, which restores the two properties of
the Boolean approach that the stand-in can only model:

* unlimited circuit depth (every gate output is bootstrapped fresh), so
  arbitrarily long queries match without parameter tuning — the
  "flexible query size" column of Table 1;
* a per-bit LWE ciphertext footprint, giving the genuine >200x
  encrypted-database blow-up of §3.1 measured in actual ciphertext
  bytes rather than a constant from a cost model.

Bootstrapping dominates the runtime exactly as the paper describes, so
functional runs use reduced dimensions; the per-gate *counts* produced
here are what the figure-scale models consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..tfhe import TFHEContext, TFHEParams
from ..tfhe.lwe import LweSample


@dataclass
class TfheEncryptedDatabase:
    """One LWE ciphertext per database bit."""

    bit_ciphertexts: List[LweSample]

    @property
    def bit_length(self) -> int:
        return len(self.bit_ciphertexts)

    @property
    def serialized_bytes(self) -> int:
        return sum(ct.serialized_bytes for ct in self.bit_ciphertexts)


@dataclass
class TfheSearchStats:
    xnor_gates: int = 0
    and_gates: int = 0
    bootstraps: int = 0

    @property
    def total_gates(self) -> int:
        return self.xnor_gates + self.and_gates


class TfheBooleanMatcher:
    """Per-bit homomorphic string matcher over bootstrapped TFHE gates.

    The circuit is identical to :class:`BooleanMatcher`: for every
    alignment ``k``, ``AND_j XNOR(d_{k+j}, q_j)``.
    """

    name = "Boolean (real TFHE)"

    def __init__(
        self, params: Optional[TFHEParams] = None, seed: Optional[int] = None
    ):
        self.ctx = TFHEContext(params or TFHEParams.test_small(), seed)
        self.params = self.ctx.params
        self.stats = TfheSearchStats()

    # -- database -----------------------------------------------------------

    def encrypt_database(self, db_bits: np.ndarray) -> TfheEncryptedDatabase:
        cts = self.ctx.encrypt_bits(np.asarray(db_bits, dtype=np.int64))
        return TfheEncryptedDatabase(cts)

    def encrypt_query(self, query_bits: np.ndarray) -> List[LweSample]:
        return self.ctx.encrypt_bits(np.asarray(query_bits, dtype=np.int64))

    # -- search ---------------------------------------------------------------

    def match_at(
        self,
        db: TfheEncryptedDatabase,
        query_cts: List[LweSample],
        offset: int,
    ) -> LweSample:
        """Encrypted match bit for a single alignment."""
        before = self.ctx.bootstrap_count
        eq_bits = [
            self.ctx.xnor(db.bit_ciphertexts[offset + j], q)
            for j, q in enumerate(query_cts)
        ]
        result = self.ctx.and_reduce(eq_bits)
        self.stats.xnor_gates += len(query_cts)
        self.stats.and_gates += len(query_cts) - 1
        self.stats.bootstraps += self.ctx.bootstrap_count - before
        return result

    def search(
        self, db: TfheEncryptedDatabase, query_bits: np.ndarray
    ) -> List[int]:
        """Traverse every alignment of the encrypted database."""
        query_cts = self.encrypt_query(query_bits)
        y = len(query_cts)
        matches = []
        for k in range(db.bit_length - y + 1):
            result = self.match_at(db, query_cts, k)
            if self.ctx.decrypt(result):
                matches.append(k)
        return matches

    # -- cost accounting ---------------------------------------------------

    @staticmethod
    def gates_for(db_bits: int, query_bits: int) -> int:
        """Total gate count for a full traversal (same circuit as the
        stand-in, so the figure models apply unchanged)."""
        alignments = max(db_bits - query_bits + 1, 0)
        return alignments * (2 * query_bits - 1)
