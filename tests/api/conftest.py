"""Shared fixtures for the unified facade tests.

`master_fixture` is THE shared parity fixture: one database and one
planted 32-bit query.  Engines with scheme- or scale-limited
capabilities see deterministic *views* of the same fixture — the query
clamped to the engine's `max_query_bits` / `practical_query_bits`, the
database to its `practical_db_bits` — so every registered engine is
exercised against `baselines.plaintext.find_all_matches` on the same
underlying data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest


@dataclass(frozen=True)
class MasterFixture:
    db_bits: np.ndarray
    query_bits: np.ndarray

    def view(self, capabilities, query_request_bits: int = 32):
        """(db view, query view) clamped to one engine's capabilities."""
        qbits = query_request_bits
        for cap in (capabilities.max_query_bits, capabilities.practical_query_bits):
            if cap is not None:
                qbits = min(qbits, cap)
        dbits = len(self.db_bits)
        if capabilities.practical_db_bits is not None:
            dbits = min(dbits, capabilities.practical_db_bits)
        return self.db_bits[:dbits].copy(), self.query_bits[:qbits].copy()


@pytest.fixture(scope="session")
def master_fixture() -> MasterFixture:
    rng = np.random.default_rng(20250728)
    db = rng.integers(0, 2, 2048).astype(np.uint8)
    query = rng.integers(0, 2, 32).astype(np.uint8)
    # Planted occurrences: one near the start (inside every clamped
    # database view — its prefix is a prefix-query occurrence), one
    # mid-database, one straddling the 2-shard polynomial boundary
    # (bit 1024 at n=64, w=16).
    db[8:40] = query
    db[608:640] = query
    db[1008:1040] = query
    return MasterFixture(db_bits=db, query_bits=query)
