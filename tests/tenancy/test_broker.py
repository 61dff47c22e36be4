"""Cross-tenant cache pressure: global budget, inviolable floors,
coldest-first victim selection.

The property tests drive random insert schedules across several tenant
caches sharing one :class:`TenantCacheBroker` and check the broker's
three invariants after every insert:

* the fleet never sits over the global byte budget unless every
  remaining eviction candidate would violate its tenant's floor;
* a tenant that ever reached its floor never drops below it again
  (pressure evictions stop at the floor — floors win over the budget);
* when pressure does evict, the victim is the tenant holding the
  globally coldest (least-recently-touched) resident entry.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tenancy import TenantCacheBroker

WORD = 8  # np.int64 itemsize: entry sizes below are in 8-byte words


def _total_bytes(broker) -> int:
    return sum(row["cache_bytes"] for row in broker.snapshot().values())


def _value(words: int) -> np.ndarray:
    return np.zeros(words, dtype=np.int64)


def _fill(cache, key, words, rows=1):
    """One call inserting ``rows`` entries of ``words`` words each (a
    request's rows go in together; the broker rebalances once after)."""
    cache.get_or_create(
        [(key, row) for row in range(rows)],
        lambda missing: [_value(words) for _ in missing],
    )


# -- deterministic behavior ---------------------------------------------------


def test_shared_clock_orders_touches_across_caches():
    broker = TenantCacheBroker(None)
    a = broker.create_cache("a", capacity=8)
    b = broker.create_cache("b", capacity=8)
    _fill(a, "k0", 1)
    _fill(b, "k0", 1)
    _fill(a, "k1", 1)
    (tick_a, _) = a.oldest_entry()
    (tick_b, _) = b.oldest_entry()
    assert tick_a < tick_b  # a's oldest predates b's on the shared clock


def test_evicts_globally_coldest_tenant_first():
    broker = TenantCacheBroker(global_budget_bytes=6 * WORD)
    cold = broker.create_cache("cold", capacity=64)
    hot = broker.create_cache("hot", capacity=64)
    _fill(cold, "c0", 2)
    _fill(cold, "c1", 2)
    _fill(hot, "h0", 2)  # fleet at budget: 6 words
    assert _total_bytes(broker) == 6 * WORD
    # the overflow insert lands on hot; the victim must be cold's
    # oldest entry, not anything of hot's
    _fill(hot, "h1", 2)
    assert _total_bytes(broker) <= 6 * WORD
    assert broker.pressure_evictions["cold"] == 1
    assert broker.pressure_evictions["hot"] == 0
    assert len(cold) == 1 and len(hot) == 2
    # a re-touch rejuvenates: cold's survivor outlives hot's oldest,
    # so the next overflow evicts from hot instead
    _fill(cold, "c1", 2)  # hit -> new tick
    _fill(cold, "c2", 2)
    assert broker.pressure_evictions["hot"] == 1
    assert len(cold) == 2 and len(hot) == 1


def test_floor_is_inviolable_even_over_budget():
    broker = TenantCacheBroker(global_budget_bytes=4 * WORD)
    floored = broker.create_cache("floored", capacity=64, floor_bytes=4 * WORD)
    other = broker.create_cache("other", capacity=64)
    _fill(floored, "f0", 2)
    _fill(floored, "f1", 2)  # exactly at floor
    _fill(other, "o0", 2)  # fleet over budget, but floored is untouchable
    assert floored.current_bytes == 4 * WORD
    assert broker.pressure_evictions["floored"] == 0
    # only "other" can yield; once it is empty the broker stops even
    # though the fleet still sits at floor bytes over... at the floor
    assert other.current_bytes == 0
    assert _total_bytes(broker) == 4 * WORD


def test_budget_none_disables_pressure():
    broker = TenantCacheBroker(None)
    a = broker.create_cache("a", capacity=64)
    for k in range(32):
        _fill(a, k, 4)
    assert broker.rebalance() == 0
    assert len(a) == 32


def test_unregister_removes_tenant_from_pressure():
    broker = TenantCacheBroker(global_budget_bytes=2 * WORD)
    a = broker.create_cache("a", capacity=64)
    _fill(a, "a0", 2)
    broker.unregister("a")
    b = broker.create_cache("b", capacity=64)
    _fill(b, "b0", 2)
    # a's bytes no longer count toward the budget; b keeps its entry
    assert len(b) == 1
    assert broker.pressure_evictions["b"] == 0


# -- property tests -----------------------------------------------------------

_SCHEDULE = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # tenant index
        st.integers(min_value=1, max_value=8),  # entry size in words
        st.integers(min_value=1, max_value=5),  # entries in the one call
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(
    schedule=_SCHEDULE,
    budget_words=st.integers(min_value=1, max_value=48),
    floors=st.tuples(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=12),
    ),
)
def test_budget_and_floor_invariants(schedule, budget_words, floors):
    tenant_ids = ["t0", "t1", "t2"]
    broker = TenantCacheBroker(global_budget_bytes=budget_words * WORD)
    caches = {
        tid: broker.create_cache(
            tid, capacity=10_000, floor_bytes=floors[i] * WORD
        )
        for i, tid in enumerate(tenant_ids)
    }
    reached_floor = {tid: False for tid in tenant_ids}
    for step, (idx, words, rows) in enumerate(schedule):
        tid = tenant_ids[idx]
        _fill(caches[tid], ("k", step), words, rows)
        for i, other in enumerate(tenant_ids):
            cache, floor = caches[other], floors[i] * WORD
            if cache.current_bytes >= floor:
                reached_floor[other] = True
            # floors win forever: once at/above floor, never below it
            if reached_floor[other]:
                assert cache.current_bytes >= floor
        total = _total_bytes(broker)
        if total > budget_words * WORD:
            # over budget only when no eviction is floor-legal
            for i, other in enumerate(tenant_ids):
                cache, floor = caches[other], floors[i] * WORD
                oldest = cache.oldest_entry()
                if oldest is not None:
                    _, nbytes = oldest
                    assert cache.current_bytes - nbytes < floor


@settings(max_examples=40, deadline=None)
@given(schedule=_SCHEDULE, budget_words=st.integers(min_value=4, max_value=64))
def test_zero_floors_always_respect_budget(schedule, budget_words):
    """With no floors, the budget holds unconditionally after every
    call, however many rows it inserted (a single oversized entry is
    evicted immediately)."""
    broker = TenantCacheBroker(global_budget_bytes=budget_words * WORD)
    caches = [
        broker.create_cache(f"t{i}", capacity=10_000) for i in range(3)
    ]
    for step, (idx, words, rows) in enumerate(schedule):
        _fill(caches[idx], ("k", step), words, rows)
        assert _total_bytes(broker) <= budget_words * WORD


@settings(max_examples=40, deadline=None)
@given(schedule=_SCHEDULE)
def test_pressure_victims_are_globally_coldest(schedule):
    """Replay a schedule against a mirror model: every pressure
    eviction must remove the globally-coldest floor-legal entry."""
    budget = 16 * WORD
    broker = TenantCacheBroker(global_budget_bytes=budget)
    caches = [
        broker.create_cache(f"t{i}", capacity=10_000) for i in range(3)
    ]
    #: mirror of resident entries: {tenant: [(tick, nbytes)...]} oldest-first
    model = {i: [] for i in range(3)}
    tick = 0
    for step, (idx, words, rows) in enumerate(schedule):
        for _ in range(rows):
            tick += 1
            model[idx].append((tick, words * WORD))
        # replay the broker's eviction loop on the mirror
        while sum(nb for rows in model.values() for _, nb in rows) > budget:
            candidates = [
                (rows[0][0], i) for i, rows in model.items() if rows
            ]
            coldest_tick, coldest_tenant = min(candidates)
            model[coldest_tenant].pop(0)
        _fill(caches[idx], ("k", step), words, rows)
        for i in range(3):
            assert len(caches[i]) == len(model[i]), (
                f"step {step}: tenant {i} resident-count diverged from "
                f"the coldest-first model"
            )
