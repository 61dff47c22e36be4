"""The "match polynomial" and index generation (§4.2.2).

After ``Hom-Add(C_~Q, C_d)`` a coefficient whose chunk matched the query
equals the all-ones value ``2^w - 1``.  The match polynomial ``P_v(x)``
has every coefficient equal to that value; index generation finds the
result coefficients that decrypt to it.

Two index-generation modes (key holder: docs/serving.md "Trust boundary"):

* ``CLIENT_DECRYPT`` — the client decrypts result ciphertexts and flags
  all-ones coefficients.  Cryptographically sound; same information
  flow as the paper (the client learns the match locations).
* ``SERVER_DETERMINISTIC`` — database and queries are encrypted
  noiselessly with masking polynomials derived from a shared seed; the
  server can then predict the exact ciphertext a match produces and
  compare, which is the paper's literal in-SSD index generation.
"""

from __future__ import annotations

import threading
from enum import Enum
from typing import Dict

import numpy as np

from ..he.arena import add_mod_q, mul_rows_by_poly
from ..he.bfv import BFVContext, Ciphertext
from ..he.keys import PublicKey, SecretKey
from .packing import derive_masking_poly


class IndexMode(Enum):
    CLIENT_DECRYPT = "client-decrypt"
    SERVER_DETERMINISTIC = "server-deterministic"


def match_value(chunk_width: int) -> int:
    """The all-ones chunk value ``2^w - 1`` that signals a match."""
    return (1 << chunk_width) - 1


def flag_matches_by_decryption(
    ctx: BFVContext, result: Ciphertext, sk: SecretKey, chunk_width: int
) -> np.ndarray:
    """Boolean per-coefficient match flags via decryption."""
    pt = ctx.decrypt(result, sk)
    return pt.poly.coeffs == match_value(chunk_width)


class DeterministicComparator:
    """Server-side coefficient comparison for ``SERVER_DETERMINISTIC``.

    Under noiseless encryption with shared-seed masking polynomials, a
    result ciphertext is exactly
    ``(pk0 * (u_db + u_q) + delta * (m_db + m_q),  pk1 * (u_db + u_q))``,
    so the server — knowing pk and the derived ``u`` values — computes
    what each coefficient would be *if* the underlying sum were the
    all-ones value, and compares.
    """

    def __init__(
        self, ctx: BFVContext, pk: PublicKey, seed: int, chunk_width: int
    ):
        self.ctx = ctx
        self.pk = pk
        self.seed = seed
        self.chunk_width = chunk_width
        # Per-index caches of ``pk0 * u`` mask rows for the batched
        # (stacked-array) comparison path.  The database-side rows are
        # query-independent, so a serving process derives them once.
        self._db_mask: Dict[int, np.ndarray] = {}
        self._query_mask: Dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def expected_match_c0(self, db_poly_index: int, query_row: int) -> np.ndarray:
        u_db = derive_masking_poly(self.ctx, self.seed, "db", db_poly_index)
        u_q = derive_masking_poly(self.ctx, self.seed, "qv", query_row)
        u_total = u_db + u_q
        mask = self.pk.pk0 * u_total
        delta = self.ctx.params.delta
        target = match_value(self.chunk_width) * delta
        return (mask.coeffs + target) % self.ctx.params.q

    def flag_matches(
        self,
        result: Ciphertext,
        db_poly_index: int,
        query_row: int,
    ) -> np.ndarray:
        expected = self.expected_match_c0(db_poly_index, query_row)
        return result.c0.coeffs == expected

    # -- stacked-array path (fused search kernel) -----------------------

    def _mask_rows(
        self, cache: Dict[int, np.ndarray], label: str, indices: np.ndarray
    ) -> np.ndarray:
        """``pk0 * u_label(i)`` rows for every index, memoized; missing
        rows are derived and multiplied in one batched kernel.

        The lock only guards cache bookkeeping: the derivation/multiply
        and the (P, n) gather run outside it, so concurrent shard
        workers don't serialize on the hot path.  A racing worker may
        rederive a row another just computed — the values are
        deterministic, so last-write-wins is harmless.
        """
        order = [int(i) for i in np.asarray(indices).tolist()]
        with self._lock:
            missing = [i for i in dict.fromkeys(order) if i not in cache]
        if missing:
            u_rows = np.stack(
                [
                    derive_masking_poly(self.ctx, self.seed, label, i).coeffs
                    for i in missing
                ]
            )
            products = mul_rows_by_poly(self.ctx.ring, u_rows, self.pk.pk0)
            with self._lock:
                for i, row in zip(missing, products):
                    cache[i] = row
        with self._lock:
            rows = [cache[i] for i in order]
        return np.stack(rows)

    def flag_matches_batch(
        self,
        result_c0: np.ndarray,
        db_poly_indices: np.ndarray,
        query_rows: np.ndarray,
    ) -> np.ndarray:
        """Batched :meth:`flag_matches` over stacked result rows.

        ``result_c0`` holds the ``(m, n)`` c0 rows of Hom-Add results;
        row ``i`` came from database polynomial ``db_poly_indices[i]``
        and query row ``query_rows[i]``.  The
        expected match ciphertext distributes over the mask sum
        (``pk0 * (u_db + u_q) = pk0 * u_db + pk0 * u_q mod q``), so the
        whole comparison is two gathers, two modular adds and one
        vectorized equality — bit-identical to the scalar path.
        """
        q = self.ctx.params.q
        db_rows = self._mask_rows(self._db_mask, "db", np.asarray(db_poly_indices))
        q_rows = self._mask_rows(
            self._query_mask, "qv", np.asarray(query_rows)
        )
        target = match_value(self.chunk_width) * self.ctx.params.delta
        expected = add_mod_q(add_mod_q(db_rows, q_rows, q), np.int64(target % q), q)
        return result_c0 == expected
