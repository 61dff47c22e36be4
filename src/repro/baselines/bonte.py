"""Bonte & Iliashenko [29]-style constant-depth SIMD string search.

The third arithmetic prior work in Table 1.  Their contribution over
Kim et al. [34] is (i) SIMD batching — many alignments evaluated at once
in the plaintext slots — and (ii) a homomorphic equality test of
*constant multiplicative depth* with respect to both the database size
and the query length.  The price is a hard cap on the query size: a
whole query window must fit in one ``F_t`` slot value, so only queries
of at most ``log2(t)`` bits are supported ("flexible query size ✗").

Construction: slide a ``y``-bit window over the database bits and place
window ``k``'s integer value in slot ``k`` (batched across as many
ciphertexts as needed).  The query becomes a single integer replicated
in every slot.  Then per ciphertext

    diff      = windows - query          (slot-wise)
    indicator = 1 - diff**(t-1)          (Fermat equality, depth
                                          ceil(log2(t-1)) — constant)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..he.batch_encoder import BatchEncoder
from ..he.bfv import BFVContext, Ciphertext
from ..he.keys import KeyGenerator, PublicKey, RelinKey, SecretKey
from ..he.params import BFVParams


def bonte_params(n: int = 8, t: int = 17) -> BFVParams:
    """Batching-friendly parameters for the depth-4 Fermat circuit
    (``t = 17`` splits fully for ``n <= 8``; the 62-bit modulus leaves
    ~19 bits of budget after ``x**16``)."""
    return BFVParams(n=n, q=(1 << 62) - 1, t=t, name=f"bonte-n{n}-t{t}")


@dataclass
class BonteEncryptedDatabase:
    """Window values batched into slot-packed ciphertexts."""

    ciphertexts: List[Ciphertext]
    window_bits: int
    total_windows: int

    @property
    def serialized_bytes(self) -> int:
        return sum(ct.serialized_bytes for ct in self.ciphertexts)


class BonteMatcher:
    """Constant-depth batched window-equality matcher.

    >>> m = BonteMatcher(seed=1)
    >>> db_bits = [1, 0, 1, 1, 0, 1, 1, 0]
    >>> enc = m.encrypt_database(db_bits, window_bits=3)
    >>> m.search(enc, [1, 1, 0])
    [2, 5]
    """

    name = "Bonte & Iliashenko"

    def __init__(
        self, params: Optional[BFVParams] = None, seed: Optional[int] = None
    ):
        self.params = params or bonte_params()
        self.encoder = BatchEncoder(self.params)
        self.ctx = BFVContext(self.params, seed)
        gen = KeyGenerator(self.params, seed)
        self.sk: SecretKey = gen.secret_key()
        self.pk: PublicKey = gen.public_key(self.sk)
        self.rlk: RelinKey = gen.relin_key(self.sk)

    # -- window packing ---------------------------------------------------

    @property
    def max_window_bits(self) -> int:
        """Window values must stay below t: at most ``log2(t)`` bits."""
        return (self.params.t - 1).bit_length() - 1

    @staticmethod
    def _window_values(db_bits: np.ndarray, window_bits: int) -> np.ndarray:
        windows = np.lib.stride_tricks.sliding_window_view(
            np.asarray(db_bits, dtype=np.int64), window_bits
        )
        weights = 1 << np.arange(window_bits - 1, -1, -1)
        return windows @ weights

    def encrypt_database(
        self, db_bits, window_bits: int
    ) -> BonteEncryptedDatabase:
        """Encrypt every ``window_bits``-wide alignment, ``n`` per ct."""
        if window_bits > self.max_window_bits:
            raise ValueError(
                f"window of {window_bits} bits exceeds the F_{self.params.t} "
                f"slot capacity of {self.max_window_bits} bits"
            )
        values = self._window_values(np.asarray(db_bits, dtype=np.int64), window_bits)
        n = self.params.n
        cts = []
        for start in range(0, len(values), n):
            chunk = values[start : start + n]
            # Pad with an impossible sentinel so padding never matches.
            padded = np.full(n, self.params.t - 1, dtype=np.int64)
            padded[: len(chunk)] = chunk
            cts.append(self.ctx.encrypt(self.encoder.encode(padded, self.ctx), self.pk))
        return BonteEncryptedDatabase(cts, window_bits, len(values))

    def encrypt_query(self, query_bits) -> Ciphertext:
        """The query as one integer replicated across all slots."""
        query_bits = np.asarray(query_bits, dtype=np.int64)
        value = int(self._window_values(query_bits, len(query_bits))[0])
        replicated = np.full(self.params.n, value, dtype=np.int64)
        return self.ctx.encrypt(self.encoder.encode(replicated, self.ctx), self.pk)

    # -- the constant-depth equality ------------------------------------

    def _fermat_indicator(self, diff: Ciphertext) -> Ciphertext:
        """Slot-wise ``1 - diff**(t-1)``: depth ceil(log2(t-1)) always."""
        exponent = self.params.t - 1
        acc = diff
        squarings = exponent.bit_length() - 1
        if (1 << squarings) != exponent:
            raise ValueError("presets use t with t-1 a power of two")
        for _ in range(squarings):
            acc = self.ctx.multiply(acc, acc, self.rlk)
        ones = self.encoder.encode(np.ones(self.params.n, dtype=np.int64), self.ctx)
        return self.ctx.add_plain(self.ctx.negate(acc), ones)

    def match_ciphertext(
        self, db_ct: Ciphertext, query_ct: Ciphertext
    ) -> Ciphertext:
        """Slot-wise match indicators for one batch of alignments."""
        diff = self.ctx.sub(db_ct, query_ct)
        return self._fermat_indicator(diff)

    # -- search ----------------------------------------------------------

    def search(self, db: BonteEncryptedDatabase, query_bits) -> List[int]:
        """Match offsets for a query of exactly ``window_bits`` bits."""
        query_bits = np.asarray(query_bits, dtype=np.int64)
        if len(query_bits) != db.window_bits:
            raise ValueError(
                f"database was windowed at {db.window_bits} bits; "
                f"got a {len(query_bits)}-bit query (Table 1: fixed size)"
            )
        query_ct = self.encrypt_query(query_bits)
        matches = []
        n = self.params.n
        for i, db_ct in enumerate(db.ciphertexts):
            indicator = self.match_ciphertext(db_ct, query_ct)
            slots = self.encoder.decode(self.ctx.decrypt(indicator, self.sk))
            for j, v in enumerate(slots):
                offset = i * n + j
                if offset < db.total_windows and int(v) == 1:
                    matches.append(offset)
        return matches
