"""End-to-end CIPHERMATCH pipeline: the six-step flow of Figure 6.

1. the client prepares the encrypted query (and match polynomial),
2. sends them to the server,
3. the server runs the Hom-Add search (CPU backend or simulated
   in-flash backend),
4. index generation happens client-side (decrypt) or server-side
   (deterministic comparison),
5. candidates are verified, and
6. match offsets are returned.

This is the API the examples and the case-study workloads use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..he.arena import fused_decrypt_flags
from ..verify import VerifyLike
from .client import CipherMatchClient, ClientConfig
from .match_polynomial import IndexMode
from .matcher import AdditionBackend, MatchCandidate, block_hits
from .packing import EncryptedDatabase
from .server import CipherMatchServer


@dataclass
class SearchReport:
    """Outcome of one secure search."""

    matches: List[int]
    candidates: List[MatchCandidate]
    hom_additions: int
    num_variants: int
    encrypted_db_bytes: int
    #: shards whose results are missing from this report (circuit
    #: breaker open / terminal worker crash under partial-results mode);
    #: empty means the report covers the whole database
    degraded_shards: Tuple[int, ...] = ()

    @property
    def num_matches(self) -> int:
        return len(self.matches)


class SecureStringMatchPipeline:
    """Client + server wired together for in-process experiments.

    A search is one of four cells, picked by ``server.fused`` (a plain
    CPU adder) and the index mode, with bit-identical matches.  Per
    pair: the server adds, then the client decrypts the blocks or the
    server's comparator flags them.  Fused: the comparator runs over the
    ciphertext arena, or — ``CLIENT_DECRYPT`` — the key holder adds
    *phases* (docs/serving.md "Trust boundary": ``sk`` never enters
    ``self.server``).
    """

    def __init__(
        self, config: ClientConfig, backend: Optional[AdditionBackend] = None
    ):
        self.config = config
        self.client = CipherMatchClient(config)
        self.server = CipherMatchServer(self.client.ctx, backend)
        self.db: Optional[EncryptedDatabase] = None

    # -- setup -----------------------------------------------------------

    def outsource_database(self, bits: np.ndarray) -> EncryptedDatabase:
        """Client packs + encrypts, server stores."""
        self.db = self.client.outsource(bits)
        self.server.store_database(self.db)
        if self.config.index_mode is IndexMode.SERVER_DETERMINISTIC:
            self.server.enable_deterministic_index(
                self.client.pk,
                self.config.deterministic_seed,
                self.client.chunk_width,
            )
        return self.db

    # -- query -----------------------------------------------------------

    def search(
        self, query_bits: np.ndarray, *, verify: VerifyLike = True
    ) -> SearchReport:
        """Run one secure search.  ``verify`` accepts a bool or a
        :class:`repro.verify.VerifyPolicy`; resolution happens in the
        client's decode step."""
        if self.db is None:
            raise RuntimeError("outsource a database first")
        prepared = self.client.prepare_query(np.asarray(query_bits, dtype=np.uint8))
        adds_before = self.server.hom_add_count

        client, server, db = self.client, self.server, self.db
        deterministic = self.config.index_mode is IndexMode.SERVER_DETERMINISTIC
        if not server.fused:
            blocks = server.search(
                prepared, lambda v_idx, j: client.encrypt_variant(prepared, v_idx, j)
            )
            if deterministic:
                hits = server.generate_index(blocks, prepared.num_variants)
            else:
                hits = block_hits(blocks, client.flag_matches, prepared.num_variants)
        elif deterministic:
            hits = server.search_index(client.query_arena(prepared))
        else:
            ctx = client.ctx
            query = client.query_arena(prepared)
            pairs = prepared.num_variants * db.num_polynomials
            server.tally_hom_adds(pairs)
            ctx.counter.decryptions += pairs
            hits = fused_decrypt_flags(
                db.fused_arena(ctx.ring, ctx.params).phases(client.sk),
                query.phases(client.sk),
                query.row_map(np.arange(db.num_polynomials)),
                ctx.params,
                client.chunk_width,
            )
        candidates = client.decode_flags_matrix(prepared, hits, db, verify=verify)

        return SearchReport(
            matches=[c.offset for c in candidates],
            candidates=candidates,
            hom_additions=self.server.hom_add_count - adds_before,
            num_variants=prepared.num_variants,
            encrypted_db_bytes=self.db.serialized_bytes,
        )
