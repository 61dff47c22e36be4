"""What a search does must not depend on what the query *says*.

The variant cache holds phase rows (``delta * m - e``) next to the
ciphertext rows, so it is the widest query-dependent state the serving
path keeps; timing and cache traffic are outputs of the system just as
the match list is.  For pairs of same-length queries — one that matches
against one that does not, all zeros against random — a cold search on
a fresh engine must leave identical operation counts, identical cache
traffic and run the same kernels and transforms on the same shapes,
allocating the same numpy arrays, in the same order, from the kernel
module and the query-layout code.

The fused kernel returns the *indices* of the set match flags, so the
lengths of what it returns differ between a matching and a non-matching
query.  That is not a new channel: the kernel runs on summed decryption
phases, and how many coefficients decrypt to the match value *is* the
decrypted answer — it exists on the key holder's side of the trust
boundary only, with the phases, and is asserted here as exactly that.
So is the number of scans the kernel's finder runs at ``q = 2**32``, and
what the candidate-confirm gathers allocate: both follow the count of
high-half candidates, which, like the returned lengths, exists only on
the key holder's side with the phases.

Two leaks are documented and asserted as such, not skipped: a
variant-cache hit and the in-batch dedup both reveal that two queries
are *equal* (``docs/serving.md``, trust boundary).  Query length and
variant count are the protocol's stated leakage and are held fixed
within a pair.
"""

from __future__ import annotations

import collections
import os

import numpy as np
import pytest

from repro.core import ClientConfig, IndexMode
from repro.he import BFVParams
from repro.core import query as query_module
from repro.he import arena as arena_module
from repro.he.bfv import _SYMMETRIC_TILE_ROWS as TILE
from repro.serve import ShardedSearchEngine
from repro.serve import engine as engine_module
from repro.utils.bits import random_bits
from tests.oracles import (
    count_transforms,
    dense_decrypt_flags,
    numpy_allocations,
    per_pair_factory,
)

QUERY_BITS = 40


def _database(params, rng):
    db = random_bits(5 * params.n * 16, rng)
    planted = random_bits(QUERY_BITS, rng)
    db[16 * 21 + 3 : 16 * 21 + 3 + QUERY_BITS] = planted
    return db, planted


class _AllocationLog:
    """Every numpy array the search allocates from the kernel module
    (:mod:`repro.he.arena`) or the query-layout code
    (:mod:`repro.core.query`), in order, as ``(function, kind, bytes)``
    — whatever made it: ``np.empty``, ``np.zeros``, a ufunc result,
    ``astype``, fancy indexing.  An allocation belongs to the first
    frame outside numpy's own package.  What the kernel docstring names
    as the decrypted answer — the finder's scans and the
    candidate-confirm gathers, which also build the returned hits — is
    kept apart under ``answer``."""

    FILES = frozenset({arena_module.__file__, query_module.__file__})
    ANSWER = frozenset({"_find_set", "_confirm_candidates"})
    NUMPY = os.path.dirname(np.__file__) + os.sep

    def __init__(self):
        self.open = True
        self.scratch = []
        self.answer = []

    def __call__(self, kind, nbytes, frame):
        while frame is not None and frame.f_code.co_filename.startswith(self.NUMPY):
            frame = frame.f_back
        if self.open and frame is not None and frame.f_code.co_filename in self.FILES:
            name = frame.f_code.co_name
            log = self.answer if name in self.ANSWER else self.scratch
            log.append((name, kind, nbytes))


def _observe(monkeypatch, params, db, queries, **config):
    """One batch on a fresh engine: everything an observer of the
    serving process could count — and, returned apart, the hit count
    only the key holder sees."""
    backend_factory = config.pop("backend_factory", None)
    engine = ShardedSearchEngine(
        ClientConfig(params, key_seed=9, **config),
        num_shards=2,
        backend_factory=backend_factory,
    )
    engine.outsource(db)
    kernel_calls = []
    hit_counts = []
    allocations = _AllocationLog()
    real_kernel = engine_module.fused_decrypt_flags

    def recording_kernel(db_phases, query_phases, row_map, *rest):
        kernel_calls.append(
            (db_phases.shape, db_phases.dtype.str,
             query_phases.shape, query_phases.dtype.str, row_map.shape)
        )
        hits = real_kernel(db_phases, query_phases, row_map, *rest)
        # the lengths are the decrypted answer: per variant, how many
        # coefficients of the summed phases decrypt to the match value
        allocations.open = False  # the oracle's own arrays are not the search's
        dense = dense_decrypt_flags(db_phases, query_phases, row_map, *rest)
        allocations.open = True
        assert [len(found) for found in hits] == dense.sum(axis=(1, 2)).tolist()
        hit_counts.append(sum(len(found) for found in hits))
        return hits

    monkeypatch.setattr(engine_module, "fused_decrypt_flags", recording_kernel)
    counter = engine.client.ctx.counter
    before = counter.snapshot()
    with count_transforms() as transforms, numpy_allocations(allocations):
        report = engine.search_batch(queries)
    monkeypatch.setattr(engine_module, "fused_decrypt_flags", real_kernel)
    after = counter.snapshot()
    stats = engine.cache.stats()
    observed = {
        "counter": {k: after[k] - before[k] for k in after},
        "cache": (stats.lookups, stats.misses, stats.hits, stats.evictions,
                  stats.size, stats.current_bytes),
        "kernels": sorted(kernel_calls),
        "scratch": allocations.scratch,
        "transforms": sorted(transforms),
        # how far the client's RNG ran: the draws of a miss pass follow
        # the row count, never the plaintext
        "rng": engine.client.ctx._rng.bit_generator.state["state"],
        "hom_additions": [r.hom_additions for r in report.reports],
        "variants": [r.num_variants for r in report.reports],
        "dedup": report.deduplicated_hits,
    }
    return engine, report, observed, sum(hit_counts)


CONFIGS = {
    "fused": {},
    "fused-deterministic": {"index_mode": IndexMode.SERVER_DETERMINISTIC},
    "per-pair": {"backend_factory": per_pair_factory},
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cold_search_is_the_same_work_whatever_the_query_says(monkeypatch, config):
    rng = np.random.default_rng(17)
    params = BFVParams.test_small(128)
    db, planted = _database(params, rng)
    absent = planted.copy()
    absent[::3] ^= 1
    pairs = {
        "matching vs non-matching": (planted, absent),
        "all zeros vs random": (
            np.zeros(QUERY_BITS, dtype=np.uint8), random_bits(QUERY_BITS, rng),
        ),
    }
    for label, (left, right) in pairs.items():
        seen = []
        for query in (left, right):
            _, report, observed, hits = _observe(
                monkeypatch, params, db, [query], **dict(CONFIGS[config])
            )
            seen.append((report.reports[0].matches, observed, hits))
        left_matches, left_seen, left_hits = seen[0]
        right_matches, right_seen, right_hits = seen[1]
        assert left_seen == right_seen, label
        assert left_seen["cache"][1] > 0 and left_seen["cache"][2] == 0, label
        assert left_seen["transforms"], label  # equal, and not vacuously
        # not vacuous: the miss pass lays out its rows, and the fused
        # kernel's scratch is logged with it
        made_by = {name for name, _, _ in left_seen["scratch"]}
        assert "row_plaintexts" in made_by, label
        if config == "fused":
            assert len(left_seen["kernels"]) == 2  # one per shard
            # per call, whatever the shard's size: 26 arrays made by the
            # kernel body (its sums, flags, high-half stacks, screened
            # block, candidate slots and their scalar temporaries) and 6
            # by its block sums
            made = collections.Counter(name for name, _, _ in left_seen["scratch"])
            assert (made["fused_decrypt_flags"], made["_block_sum"]) == (2 * 26, 2 * 6)
        if label.startswith("matching"):
            assert left_matches and not right_matches  # the answers do differ
            if config == "fused":
                # ... and so does what the key holder's kernel returns
                assert left_hits > right_hits


def test_query_equality_is_the_documented_leak(monkeypatch):
    """The two exceptions, asserted: repeating a query turns every cache
    lookup into a hit and runs no transform, and a batch holding the
    same query twice does the work of one."""
    rng = np.random.default_rng(23)
    params = BFVParams.test_small(128)
    db, planted = _database(params, rng)
    other = random_bits(QUERY_BITS, rng)

    engine, _, cold, _ = _observe(monkeypatch, params, db, [planted])
    lookups, misses = cold["cache"][0], cold["cache"][1]
    assert lookups == misses > 0

    with count_transforms() as transforms:
        engine.search_batch([planted])
    stats = engine.cache.stats()
    assert transforms == []
    assert (stats.hits, stats.misses) == (misses, misses)

    # a different query of the same length on the same engine is cold again
    with count_transforms() as transforms:
        engine.search_batch([other])
    # (the secret key and the database phases were transformed by the
    # first search; what repeats is the miss pass: the two 16-bit pieces
    # of every row's uniform ``a`` forward, its ``a * s`` back, a tile
    # of rows at a time — 2 forward + 2 inverse FFTs per miss, shapes a
    # function of the number of missing rows and ``n`` alone)
    tiles = [TILE] * (misses // TILE) + [misses % TILE] * bool(misses % TILE)
    assert transforms == [
        ("SmallProductFft", direction, 1, (rows, 2, width))
        for rows in tiles
        for direction, width in (("forward", params.n), ("inverse", params.n // 2))
    ]
    assert engine.cache.stats().misses == 2 * misses

    _, report, twice, _ = _observe(monkeypatch, params, db, [planted, planted])
    assert twice["dedup"] == 1
    assert report.reports[0] is report.reports[1]
    for key in ("counter", "cache", "kernels", "scratch", "transforms", "rng"):
        assert twice[key] == cold[key], key
    _, _, distinct, _ = _observe(monkeypatch, params, db, [planted, other])
    assert distinct["dedup"] == 0
    assert distinct["cache"][1] == 2 * misses
