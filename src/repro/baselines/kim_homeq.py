"""Kim et al. [34]-style homomorphic-equality (HomEQ) string matching.

The second arithmetic prior work in Table 1: instead of returning one
ciphertext per database block like Yasuda et al. [27], a homomorphic
*equality circuit* folds every alignment's match indicator into a single
result ciphertext — "algorithm scalability ✓" — at the price of deep,
expensive homomorphic multiplication chains ("execution time: High",
"SIMD ✗", "flexible query size ✗").

The equality circuit is the Fermat test over the plaintext field
``F_t``: for ``x in F_t``, ``EQ(x) = 1 - x**(t-1)`` is 1 iff ``x = 0``.
Characters come from an alphabet embedded in ``F_t`` (the default
``t = 5`` hosts the DNA alphabet); per alignment the circuit computes

    mismatches S = sum_j (1 - EQ(d_{k+j} - q_j))        (depth 2 each)
    indicator   = EQ(S) = 1 - S**(t-1)                  (depth 2 more)

which needs the query length to stay below ``t`` — the query-size
restriction the paper calls out.  All indicators are then packed into
one ciphertext as ``sum_k indicator_k * X^k``.

Kim et al. additionally use Frobenius-map rotations to lower the
exponentiation depth for extension-field slots; with a prime-field
alphabet the Frobenius is the identity, so the square-and-multiply
ladder here is the full cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..he.bfv import BFVContext, Ciphertext
from ..he.keys import PublicKey, RelinKey, SecretKey
from ..he.params import BFVParams


def homeq_params(n: int = 64, t: int = 5) -> BFVParams:
    """Parameters sized for the depth-4 HomEQ circuit (62-bit modulus)."""
    return BFVParams(n=n, q=(1 << 62) - 1, t=t, name=f"kim-homeq-n{n}-t{t}")


@dataclass
class KimEncryptedDatabase:
    """One ciphertext per character (Kim's construction is not batched)."""

    char_ciphertexts: List[Ciphertext]
    alphabet_size: int

    @property
    def length(self) -> int:
        return len(self.char_ciphertexts)

    @property
    def serialized_bytes(self) -> int:
        return sum(ct.serialized_bytes for ct in self.char_ciphertexts)


class KimHomEQMatcher:
    """Equality-circuit string matcher over an ``F_t`` alphabet.

    >>> m = KimHomEQMatcher(seed=1)
    >>> db = [0, 1, 2, 3, 0, 1]   # characters in F_5
    >>> enc_db = m.encrypt_database(db)
    >>> m.search(enc_db, [2, 3])
    [2]
    """

    name = "Kim et al. HomEQ"

    def __init__(
        self, params: Optional[BFVParams] = None, seed: Optional[int] = None
    ):
        from ..he.keys import KeyGenerator

        self.params = params or homeq_params()
        self.ctx = BFVContext(self.params, seed)
        gen = KeyGenerator(self.params, seed)
        self.sk: SecretKey = gen.secret_key()
        self.pk: PublicKey = gen.public_key(self.sk)
        self.rlk: RelinKey = gen.relin_key(self.sk)
        self._one = self._constant_plaintext(1)

    # -- helpers --------------------------------------------------------

    def _constant_plaintext(self, value: int):
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        coeffs[0] = value % self.params.t
        return self.ctx.plaintext(coeffs)

    def _encrypt_char(self, char: int) -> Ciphertext:
        if not 0 <= char < self.params.t:
            raise ValueError(
                f"character {char} outside alphabet F_{self.params.t}"
            )
        coeffs = np.zeros(self.params.n, dtype=np.int64)
        coeffs[0] = char
        return self.ctx.encrypt(self.ctx.plaintext(coeffs), self.pk)

    def _fermat_power(self, ct: Ciphertext) -> Ciphertext:
        """``ct**(t-1)`` by square-and-multiply (t - 1 is a power of two
        for the presets; general t uses the full ladder)."""
        exponent = self.params.t - 1
        result: Ciphertext | None = None
        square = ct
        while exponent:
            if exponent & 1:
                if result is None:
                    result = square
                else:
                    result = self.ctx.multiply(result, square, self.rlk)
            exponent >>= 1
            if exponent:
                square = self.ctx.multiply(square, square, self.rlk)
        assert result is not None
        return result

    def _equals_zero(self, ct: Ciphertext) -> Ciphertext:
        """``EQ(x) = 1 - x**(t-1)`` — 1 iff the encrypted value is 0."""
        powered = self._fermat_power(ct)
        return self.ctx.add_plain(self.ctx.negate(powered), self._one)

    # -- public API ---------------------------------------------------------

    def encrypt_database(self, chars: Sequence[int]) -> KimEncryptedDatabase:
        cts = [self._encrypt_char(int(c)) for c in chars]
        return KimEncryptedDatabase(cts, self.params.t)

    def encrypt_query(self, chars: Sequence[int]) -> List[Ciphertext]:
        if len(chars) >= self.params.t:
            raise ValueError(
                f"query length {len(chars)} must stay below t={self.params.t} "
                "(the mismatch count must fit in one field element)"
            )
        return [self._encrypt_char(int(c)) for c in chars]

    def match_indicator(
        self,
        db: KimEncryptedDatabase,
        query_cts: List[Ciphertext],
        offset: int,
    ) -> Ciphertext:
        """Encrypted 0/1 indicator for one alignment."""
        mismatch_sum: Ciphertext | None = None
        for j, q_ct in enumerate(query_cts):
            diff = self.ctx.sub(db.char_ciphertexts[offset + j], q_ct)
            not_eq = self._fermat_power(diff)  # 1 iff chars differ
            if mismatch_sum is None:
                mismatch_sum = not_eq
            else:
                mismatch_sum = self.ctx.add(mismatch_sum, not_eq)
        assert mismatch_sum is not None
        return self._equals_zero(mismatch_sum)

    def search_compressed(
        self, db: KimEncryptedDatabase, query: Sequence[int]
    ) -> Ciphertext:
        """The HomEQ headline: every alignment folded into ONE ciphertext
        (``sum_k indicator_k * X^k``)."""
        query_cts = self.encrypt_query(query)
        y = len(query_cts)
        result: Ciphertext | None = None
        for k in range(db.length - y + 1):
            indicator = self.match_indicator(db, query_cts, k)
            monomial = self.ctx.plaintext(
                self.ctx.plain_ring.monomial(k).coeffs
            )
            positioned = self.ctx.multiply_plain(indicator, monomial)
            result = positioned if result is None else self.ctx.add(result, positioned)
        if result is None:
            raise ValueError("query longer than database")
        return result

    def search(self, db: KimEncryptedDatabase, query: Sequence[int]) -> List[int]:
        """Decrypt the compressed result into match offsets."""
        compressed = self.search_compressed(db, query)
        coeffs = self.ctx.decrypt(compressed, self.sk).poly.coeffs
        limit = db.length - len(query) + 1
        return [k for k in range(limit) if int(coeffs[k]) == 1]
