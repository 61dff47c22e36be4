"""The client (user) side of the CIPHERMATCH protocol.

The client owns the data and the keys: it packs and encrypts the
database before outsourcing it, prepares encrypted queries, and decodes
(and under ``CLIENT_DECRYPT`` mode, decrypts) the search results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..he.bfv import BFVContext, Ciphertext
from ..he.keys import KeyGenerator, PublicKey, SecretKey
from ..he.params import BFVParams
from ..utils.bits import matches_at
from ..verify import VerifyLike, want_verify
from .match_polynomial import IndexMode, flag_matches_by_decryption
from .matcher import MatchCandidate, ResultDecoder, verify_candidates
from .packing import DataPacker, EncryptedDatabase, PackedDatabase
from .query import PreparedQuery, QueryPreparer


@dataclass
class ClientConfig:
    params: BFVParams
    chunk_width: Optional[int] = None
    index_mode: IndexMode = IndexMode.CLIENT_DECRYPT
    deterministic_seed: Optional[int] = None
    key_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.index_mode is IndexMode.SERVER_DETERMINISTIC and (
            self.deterministic_seed is None
        ):
            self.deterministic_seed = 0xC1F0


class CipherMatchClient:
    """Client endpoint: key owner, data owner, query issuer."""

    def __init__(self, config: ClientConfig):
        self.config = config
        self.ctx = BFVContext(config.params, seed=config.key_seed)
        keygen = KeyGenerator(config.params, seed=config.key_seed)
        self.sk: SecretKey = keygen.secret_key()
        self.pk: PublicKey = keygen.public_key(self.sk)
        self.packer = DataPacker(self.ctx, config.chunk_width)
        self.preparer = QueryPreparer(self.ctx, self.packer.chunk_width)
        self._db_bits: Optional[np.ndarray] = None

    @property
    def chunk_width(self) -> int:
        return self.packer.chunk_width

    # -- database preparation (Algorithm 1, lines 1-3) -----------------

    def pack_database(self, bits: np.ndarray) -> PackedDatabase:
        self._db_bits = np.asarray(bits, dtype=np.uint8)
        return self.packer.pack(self._db_bits)

    @property
    def masking_seed(self) -> Optional[int]:
        """The shared masking seed under ``SERVER_DETERMINISTIC``, else
        ``None`` (ordinary randomized encryption)."""
        if self.config.index_mode is IndexMode.SERVER_DETERMINISTIC:
            return self.config.deterministic_seed
        return None

    def encrypt_database(self, packed: PackedDatabase) -> EncryptedDatabase:
        return self.packer.encrypt(
            packed, self.pk, deterministic_seed=self.masking_seed
        )

    def outsource(self, bits: np.ndarray) -> EncryptedDatabase:
        """Pack + encrypt in one call (what a deployment would do)."""
        return self.encrypt_database(self.pack_database(bits))

    # -- query preparation (lines 4-9) ----------------------------------

    def prepare_query(self, query_bits: np.ndarray) -> PreparedQuery:
        return self.preparer.prepare(query_bits)

    # -- result handling (line 12 and the verification step) -----------

    def flag_matches(
        self, result: Ciphertext, poly_index: int, query_row: int
    ) -> np.ndarray:
        """Match flags of one Hom-Add result block by decryption, with
        the signature of :meth:`DeterministicComparator.flag_matches`
        (:func:`~.matcher.block_hits` calls either; decryption needs no
        position)."""
        return flag_matches_by_decryption(
            self.ctx, result, self.sk, self.chunk_width
        )

    def decode_flags_matrix(
        self,
        prepared: PreparedQuery,
        hits: Sequence[np.ndarray],
        db: EncryptedDatabase,
        *,
        verify: VerifyLike = True,
    ) -> List[MatchCandidate]:
        """Decode what every search cell returns — per variant, the
        sorted flat indices ``j * n + c`` of the set flags of its
        ``(num_polys, n)`` flag matrix — to bit offsets, optionally
        verified against the client's own plaintext copy.  (The name
        predates the index form; the benchmark's tracer resolves it.)

        ``verify`` accepts a bool or a :class:`repro.verify.VerifyPolicy`
        — this is the single place a BFV search resolves the policy to
        a decision."""
        decoder = ResultDecoder(self.chunk_width, db.n, db.bit_length)
        candidates = decoder.decode_hits(prepared, hits)
        if want_verify(verify) and self._db_bits is not None:
            return verify_candidates(
                candidates,
                lambda off: matches_at(self._db_bits, prepared.query_bits, off),
            )
        return candidates
