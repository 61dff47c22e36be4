"""Production-style serving layer for the CIPHERMATCH secure search.

The paper's Figure 9/12 evaluation issues 1000-query batches against
one encrypted database.  This package serves them — and every other
BFV search in the repo, one shard standing for one server — through a
sharded serving engine:

:class:`ShardedSearchEngine`
    Splits an :class:`~repro.core.packing.EncryptedDatabase` into
    contiguous per-shard polynomial slices, places each shard on its own
    :class:`~repro.core.matcher.AdditionBackend` (CPU reference or the
    simulated in-flash backend from :mod:`repro.ssd.device`), and runs a
    batch as (query, shard) tasks on the calling thread.  Per-shard
    match-flag indices are merged in global polynomial order, so merged
    results — match offsets included — are identical whatever the shard
    count, even for occurrences spanning shard boundaries.

:class:`VariantCipherCache`
    A bounded, thread-safe LRU cache of encrypted query variants shared
    across the batch, replacing the old unbounded per-batch dict.
    Hit/miss/eviction counters feed the serving report.

:class:`ServeScheduler`
    Pins shards to SSD (channel, die) pairs and replays the executed
    task trace through :mod:`repro.ssd.queueing`'s discrete-event model,
    yielding the modeled makespan and per-shard utilization a CM-IFP
    deployment of the same batch would see.

:class:`ServeReport`
    Per-query :class:`SearchReport` list plus
    throughput, wall/modeled latency percentiles, cache and shard
    statistics, rendered with the :mod:`repro.eval.tables`
    helpers.

Quickstart
----------
>>> import numpy as np
>>> from repro.he import BFVParams
>>> from repro.core import ClientConfig
>>> from repro.serve import ShardedSearchEngine
>>> engine = ShardedSearchEngine(
...     ClientConfig(BFVParams.test_small(64), key_seed=1), num_shards=4
... )
>>> db = np.zeros(4096, dtype=np.uint8); db[160:192] = 1
>>> _ = engine.outsource(db)
>>> engine.search(np.ones(32, dtype=np.uint8)).matches
[160]

``python -m repro serve`` runs a complete demo, and
``benchmarks/bench_serving.py`` measures batch throughput scaling from
one to eight shards.
"""

from .admission import AdmissionController, classify_request, coerce_admission
from .cache import CacheStats, VariantCipherCache
from .engine import BackendFactory, DbShard, ShardedSearchEngine, WorkerCrashError
from .report import SearchReport, ServeReport, ShardStats
from .scheduler import ServeScheduler, ShardTaskTrace

__all__ = [
    "AdmissionController",
    "BackendFactory",
    "CacheStats",
    "DbShard",
    "SearchReport",
    "ServeReport",
    "ServeScheduler",
    "ShardStats",
    "ShardTaskTrace",
    "ShardedSearchEngine",
    "VariantCipherCache",
    "WorkerCrashError",
    "classify_request",
    "coerce_admission",
]
