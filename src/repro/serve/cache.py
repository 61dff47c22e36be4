"""Bounded, thread-safe LRU cache for encrypted query variants.

A query batch re-encrypts the same (query, row) polynomial once per
shard touch unless something caches it, and a serving process that
stays up for millions of queries cannot keep an unbounded dict.  :class:`VariantCipherCache` keeps the most recently
used variant ciphertexts under a hard entry bound and reports
hit/miss/eviction statistics so the serving report can surface cache
effectiveness.

The cache also doubles as the encryption serialization point: query
encryption draws from the client's (non-thread-safe) RNG, so the miss
path runs the factory under the cache lock, which guarantees each key
is encrypted at most once per residency.  A request asks for all of its
keys in one :meth:`~VariantCipherCache.get_or_create` call — one lock
round trip, one factory call that encrypts every missing row in one
pass (``docs/perf.md``, "Queries under the secret key, one pass per
request") — and a hit costs a dictionary lookup and nothing else: no
transform, no draw.

Values are whatever the serving path caches per (query, row) — one
row per query variant (:func:`~repro.he.arena.query_row_layout`).  The
sharded engine stores one row of
:meth:`~repro.he.bfv.BFVContext.fresh_phase_rows` per entry — the
``(n,)`` phase row ``delta * m - e`` in the narrowest unsigned type
that holds ``[0, q)``, 4 KiB at the paper's parameters (256 entries:
1 MiB) — and, in ``SERVER_DETERMINISTIC`` mode, the ``(2, n)``
ciphertext rows.  A phase row is the query under the secret key: the
cache lives on the key holder's side of the trust boundary
(``docs/serving.md``), and a per-pair adder is handed the ciphertext
made of it.

Byte accounting (multi-tenant serving)
--------------------------------------
Every entry is sized on insert (:func:`entry_nbytes`) and the cache
tracks its resident byte total.  A ``max_bytes`` bound adds byte-based
LRU eviction on top of the entry bound, and a shared ``clock`` — a
callable returning a monotonically increasing tick, one counter across
all of a fleet's tenant caches — stamps every touch so the
:class:`~repro.tenancy.TenantCacheBroker` can find the globally
coldest resident row when cross-tenant pressure forces an eviction.
"""

from __future__ import annotations

import itertools
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple, TypeVar

V = TypeVar("V")


def entry_nbytes(value: object) -> int:
    """Best-effort resident size of one cached value, in bytes.

    ndarrays (and anything else exposing an integer ``nbytes``) report
    their buffer size; tuples/lists sum their elements; everything else
    falls back to :func:`sys.getsizeof`.  The figure feeds quota
    accounting, not allocation — a consistent estimate is all that is
    required.
    """
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    if nbytes is not None:
        try:
            return int(nbytes)
        except (TypeError, ValueError):
            pass
    if isinstance(value, (tuple, list)):
        return sum(entry_nbytes(v) for v in value)
    # Ciphertext-like objects carry their wire size; prefer it over the
    # shallow getsizeof of the wrapper object.
    serialized = getattr(value, "serialized_bytes", None)
    if isinstance(serialized, int):
        return serialized
    return sys.getsizeof(value)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of cache effectiveness counters."""

    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int
    #: resident value bytes (0 for legacy snapshots)
    current_bytes: int = 0
    #: byte bound, when one is set (None -> entry bound only)
    max_bytes: Optional[int] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Entry:
    """One resident value with its size and last-touch tick."""

    __slots__ = ("value", "nbytes", "last_touch")

    def __init__(self, value: object, nbytes: int, last_touch: int):
        self.value = value
        self.nbytes = nbytes
        self.last_touch = last_touch


class VariantCipherCache:
    """LRU-bounded map from cache keys to encrypted query variants.

    Parameters
    ----------
    capacity:
        Hard entry bound (the historical knob).
    max_bytes:
        Optional resident-byte bound; exceeding it evicts LRU entries
        until the total fits (at least one entry always stays — a
        single oversized value must remain usable).
    clock:
        Callable yielding monotonically increasing integer ticks for
        last-touch stamps.  Pass one shared counter across many caches
        (see :class:`~repro.tenancy.TenantCacheBroker`) to make
        "coldest entry across tenants" a meaningful comparison;
        defaults to a private counter.
    on_insert:
        Called with this cache *after* a call inserted values — once
        per call, outside the cache lock — the broker's hook to apply
        cross-tenant pressure without entangling locks.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        max_bytes: Optional[int] = None,
        clock: Optional[Callable[[], int]] = None,
        on_insert: Optional[Callable[["VariantCipherCache"], None]] = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._clock = clock or itertools.count(1).__next__
        self._on_insert = on_insert
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> list:
        """Cached values, LRU-first (tests and diagnostics)."""
        with self._lock:
            return [entry.value for entry in self._entries.values()]

    def get_or_create(
        self,
        keys: Sequence[Hashable],
        factory: Callable[[List[Hashable]], Sequence[V]],
    ) -> List[V]:
        """Return the cached values for ``keys`` (distinct, in order),
        creating the missing ones in one ``factory(missing_keys)`` call.

        The factory runs under the cache lock (see module docstring), so
        it must not re-enter the cache.  Bounds are enforced — and
        ``on_insert`` runs — once, after every created value is in: the
        call returns all of its values even when it inserts more than
        the cache holds.
        """
        if len(set(keys)) != len(keys):
            raise ValueError("the keys of one call must be distinct")
        values: List[V] = [None] * len(keys)  # type: ignore[list-item]
        missing: List[int] = []
        with self._lock:
            for i, key in enumerate(keys):
                entry = self._entries.get(key)
                if entry is None:
                    missing.append(i)
                    continue
                self._entries.move_to_end(key)
                entry.last_touch = self._clock()
                values[i] = entry.value
            self.hits += len(keys) - len(missing)
            if missing:
                self.misses += len(missing)
                created = factory([keys[i] for i in missing])
                if len(created) != len(missing):
                    raise ValueError(
                        f"factory made {len(created)} values for "
                        f"{len(missing)} missing keys"
                    )
                for i, value in zip(missing, created):
                    entry = _Entry(value, entry_nbytes(value), self._clock())
                    self._entries[keys[i]] = entry
                    self.current_bytes += entry.nbytes
                    values[i] = value
                self._evict_over_bounds_locked()
        if missing and self._on_insert is not None:
            self._on_insert(self)
        return values

    def _evict_over_bounds_locked(self) -> None:
        while len(self._entries) > self.capacity:
            self._evict_oldest_locked()
        if self.max_bytes is not None:
            while (
                self.current_bytes > self.max_bytes and len(self._entries) > 1
            ):
                self._evict_oldest_locked()

    def _evict_oldest_locked(self) -> int:
        if not self._entries:
            return 0
        _, entry = self._entries.popitem(last=False)
        self.current_bytes -= entry.nbytes
        self.evictions += 1
        return entry.nbytes

    # -- cross-tenant pressure surface (TenantCacheBroker) ---------------

    def oldest_entry(self) -> Optional[Tuple[int, int]]:
        """(last_touch tick, nbytes) of the LRU entry, or None if empty.

        The broker compares these ticks *across* tenant caches sharing
        one clock to locate the globally coldest resident row.
        """
        with self._lock:
            for entry in self._entries.values():
                return entry.last_touch, entry.nbytes
            return None

    def evict_oldest(self) -> int:
        """Evict the LRU entry; returns the bytes freed (0 if empty)."""
        with self._lock:
            return self._evict_oldest_locked()

    def clear(self) -> None:
        """Drop all entries (new database outsourced); counters persist
        so long-running serving stats survive re-outsourcing."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                capacity=self.capacity,
                size=len(self._entries),
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                current_bytes=self.current_bytes,
                max_bytes=self.max_bytes,
            )
