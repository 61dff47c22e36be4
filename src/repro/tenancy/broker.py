"""Cross-tenant cache pressure: one byte budget over many tenant caches.

Every tenant owns a private
:class:`~repro.serve.cache.VariantCipherCache` (its keys embed its own
query material, so entries never collide across keypairs), but the
fleet shares one memory budget.  :class:`TenantCacheBroker` enforces
it the way a shared buffer pool would:

* all tenant caches stamp touches from **one global tick counter**, so
  "the coldest resident row in the fleet" is a well-defined total
  order;
* when the summed resident bytes exceed the global budget, the broker
  evicts LRU entries from the tenant holding the **globally coldest**
  row — the coldest tenant's rows go first, hot tenants keep their
  working set;
* each tenant's ``cache_floor_bytes`` is inviolable: an eviction that
  would drop a tenant below its floor is skipped and the next-coldest
  candidate is taken instead, so an idle tenant is never fully evicted
  no matter how hot its neighbors run.  Floors win over the budget —
  if only floor bytes remain, the broker stops even while over budget.

The broker hooks each cache's ``on_insert`` callback, so pressure is
applied synchronously on the call that caused the overflow, once after
its inserts (no background sweeper, no window where the fleet is over
budget by more than one request's rows).
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Optional, Tuple

from ..serve.cache import VariantCipherCache


class TenantCacheBroker:
    """Global byte budget with per-tenant floors over tenant LRU caches.

    Parameters
    ----------
    global_budget_bytes:
        Fleet-wide resident-byte bound across all registered tenant
        caches (None disables cross-tenant pressure; caches then only
        honor their own local bounds).
    """

    def __init__(self, global_budget_bytes: Optional[int] = None):
        if global_budget_bytes is not None and global_budget_bytes < 0:
            raise ValueError(
                f"global_budget_bytes must be >= 0, got {global_budget_bytes}"
            )
        self.global_budget_bytes = global_budget_bytes
        self._lock = threading.Lock()
        self._tick = itertools.count(1)
        #: tenant id -> (cache, floor_bytes)
        self._caches: Dict[str, Tuple[VariantCipherCache, int]] = {}
        #: evictions forced by cross-tenant pressure, per tenant
        self.pressure_evictions: Dict[str, int] = {}

    # -- clock ------------------------------------------------------------

    def clock(self) -> int:
        """Next global touch tick (shared across every tenant cache)."""
        with self._lock:
            return next(self._tick)

    # -- registration ------------------------------------------------------

    def create_cache(
        self,
        tenant_id: str,
        *,
        capacity: int = 256,
        floor_bytes: int = 0,
        max_bytes: Optional[int] = None,
    ) -> VariantCipherCache:
        """Build + register one tenant's cache wired to this broker."""
        cache = VariantCipherCache(
            capacity,
            max_bytes=max_bytes,
            clock=self.clock,
            on_insert=lambda _cache: self.rebalance(),
        )
        self.register(tenant_id, cache, floor_bytes=floor_bytes)
        return cache

    def register(
        self,
        tenant_id: str,
        cache: VariantCipherCache,
        *,
        floor_bytes: int = 0,
    ) -> None:
        if floor_bytes < 0:
            raise ValueError(f"floor_bytes must be >= 0, got {floor_bytes}")
        with self._lock:
            if tenant_id in self._caches:
                raise ValueError(f"tenant {tenant_id!r} already registered")
            self._caches[tenant_id] = (cache, floor_bytes)
            self.pressure_evictions.setdefault(tenant_id, 0)

    def unregister(self, tenant_id: str) -> None:
        with self._lock:
            self._caches.pop(tenant_id, None)

    # -- accounting --------------------------------------------------------

    def floor_bytes(self, tenant_id: str) -> int:
        with self._lock:
            return self._caches[tenant_id][1]

    # -- pressure ----------------------------------------------------------

    def rebalance(self) -> int:
        """Evict globally-coldest rows until the budget holds.

        Returns the number of evictions performed.  Stops early when
        every remaining candidate eviction would violate its tenant's
        floor (floors win over the budget), so the invariant after any
        call is: either ``total <= budget`` or every tenant with
        resident bytes sits at-or-below floor + one-entry granularity.
        """
        if self.global_budget_bytes is None:
            return 0
        evicted = 0
        while True:
            with self._lock:
                caches = list(self._caches.items())
            total = sum(cache.current_bytes for _, (cache, _) in caches)
            if total <= self.global_budget_bytes:
                return evicted
            victim_id = None
            victim_cache = None
            victim_tick = None
            for tenant_id, (cache, floor) in caches:
                oldest = cache.oldest_entry()
                if oldest is None:
                    continue
                tick, nbytes = oldest
                # Floors are inviolable: skip an eviction that would
                # leave the tenant below its guaranteed residency.
                if cache.current_bytes - nbytes < floor:
                    continue
                if victim_tick is None or tick < victim_tick:
                    victim_id, victim_cache, victim_tick = tenant_id, cache, tick
            if victim_cache is None:
                return evicted  # only floor bytes remain
            if victim_cache.evict_oldest() == 0:
                return evicted  # raced an eviction/clear; re-evaluate next insert
            evicted += 1
            with self._lock:
                self.pressure_evictions[victim_id] = (
                    self.pressure_evictions.get(victim_id, 0) + 1
                )

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant cache accounting (bytes, floor, pressure evictions)."""
        with self._lock:
            caches = list(self._caches.items())
            pressure = dict(self.pressure_evictions)
        return {
            tenant_id: {
                "cache_bytes": cache.current_bytes,
                "cache_floor_bytes": floor,
                "cache_entries": len(cache),
                "pressure_evictions": pressure.get(tenant_id, 0),
            }
            for tenant_id, (cache, floor) in caches
        }
