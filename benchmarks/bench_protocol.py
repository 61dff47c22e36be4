"""Protocol transcript sizes — the communication-complexity story of
§2.2 ("HE requires only two rounds ... minimal data transfer"),
measured on the wire with real serialized ciphertexts.
"""

import numpy as np
from _util import emit

from repro.core.client import ClientConfig
from repro.core.protocol import WireProtocolSession
from repro.eval.tables import format_bytes, format_table
from repro.he import BFVParams
from repro.utils.bits import random_bits


def _table() -> str:
    rows = []
    for db_bits, query_bits in ((640, 32), (2560, 32), (2560, 64)):
        session = WireProtocolSession(ClientConfig(BFVParams.test_small(64)))
        rng = np.random.default_rng(db_bits + query_bits)
        db = random_bits(db_bits, rng)
        session.outsource(db)
        query = db[:query_bits].copy()
        session.search(query)
        stats = session.stats
        rows.append(
            [
                f"{db_bits}b db / {query_bits}b q",
                format_bytes(stats.database_upload),
                format_bytes(stats.query_upload),
                format_bytes(stats.result_download),
                format_bytes(stats.online_bytes),
            ]
        )
    return format_table(
        "Wire protocol transcript sizes (2-round HE exchange)",
        ["workload", "db upload (offline)", "query up", "results down", "online total"],
        rows,
        paper_note="two rounds only; the query upload is one ciphertext "
        "per variant plus a 4-byte row-map entry per (variant, database "
        "polynomial) pair, the download one ciphertext per pair",
    )


def test_emit_protocol(benchmark):
    emit("protocol_transcripts", _table())
    benchmark.pedantic(_table, rounds=1, iterations=1)
