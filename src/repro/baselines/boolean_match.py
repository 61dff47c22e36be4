"""The Boolean-approach baseline: per-bit homomorphic XNOR/AND string
matching (Pradel & Mitchell [33]; Aziz et al. [17] with SIMD batching).

Every database bit and every query bit is its own ciphertext.  For each
alignment ``k`` the circuit computes ``AND_j XNOR(d_{k+j}, q_j)``; the
result bit is 1 exactly when the query matches at ``k``.  The footprint
blow-up (>200x) and the gate counts this produces are the quantities
Figures 2 and 7-9 compare against.

Functional runs use the BFV Boolean mode (see :mod:`repro.he.boolean`);
figure-scale costs come from :class:`repro.he.boolean.GateCostModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..he.bfv import Ciphertext
from ..he.boolean import BooleanContext
from ..he.keys import PublicKey, RelinKey, SecretKey
from ..he.params import BFVParams


@dataclass
class BooleanEncryptedDatabase:
    bit_ciphertexts: List[Ciphertext]

    @property
    def bit_length(self) -> int:
        return len(self.bit_ciphertexts)

    @property
    def serialized_bytes(self) -> int:
        return sum(ct.serialized_bytes for ct in self.bit_ciphertexts)


@dataclass
class BooleanSearchStats:
    xnor_gates: int = 0
    and_gates: int = 0

    @property
    def total_gates(self) -> int:
        return self.xnor_gates + self.and_gates


class BooleanMatcher:
    """Functional per-bit homomorphic string matcher."""

    name = "Boolean (TFHE-style)"

    def __init__(
        self, params: Optional[BFVParams] = None, seed: Optional[int] = None
    ):
        self.bool_ctx = BooleanContext(params, seed)
        self.params = self.bool_ctx.params
        self.stats = BooleanSearchStats()

    # -- database -----------------------------------------------------------

    def encrypt_database(
        self, db_bits: np.ndarray, pk: PublicKey
    ) -> BooleanEncryptedDatabase:
        cts = self.bool_ctx.encrypt_bits(np.asarray(db_bits, dtype=np.int64), pk)
        return BooleanEncryptedDatabase(cts)

    # -- search ---------------------------------------------------------------

    def match_at(
        self,
        db: BooleanEncryptedDatabase,
        query_cts: List[Ciphertext],
        offset: int,
        rlk: RelinKey,
    ) -> Ciphertext:
        """Encrypted match bit for a single alignment."""
        y = len(query_cts)
        eq_bits = []
        for j in range(y):
            eq_bits.append(self.bool_ctx.xnor(db.bit_ciphertexts[offset + j], query_cts[j]))
            self.stats.xnor_gates += 1
        self.stats.and_gates += y - 1
        return self.bool_ctx.and_reduce(eq_bits, rlk)

    def search(
        self,
        db: BooleanEncryptedDatabase,
        query_bits: np.ndarray,
        pk: PublicKey,
        sk: SecretKey,
        rlk: RelinKey,
    ) -> List[int]:
        """Traverse every alignment of the encrypted database."""
        query_bits = np.asarray(query_bits, dtype=np.int64)
        query_cts = self.bool_ctx.encrypt_bits(query_bits, pk)
        y = len(query_cts)
        matches = []
        for k in range(db.bit_length - y + 1):
            result = self.match_at(db, query_cts, k, rlk)
            if self.bool_ctx.decrypt_bit(result, sk):
                matches.append(k)
        return matches

    # -- cost accounting ---------------------------------------------------

    @staticmethod
    def gates_for(db_bits: int, query_bits: int) -> int:
        """Total gate count for a full traversal (Figure 2b/7 input)."""
        alignments = max(db_bits - query_bits + 1, 0)
        return alignments * (2 * query_bits - 1)
