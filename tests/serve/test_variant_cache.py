"""Unit tests for the bounded LRU variant-ciphertext cache."""

import threading

import numpy as np
import pytest

from repro.serve import VariantCipherCache


def _one(cache, key, value):
    """The single-key call: a one-element key list."""
    return cache.get_or_create([key], lambda missing: [value])[0]


class TestLruSemantics:
    def test_eviction_respects_bound(self):
        cache = VariantCipherCache(4)
        for i in range(10):
            _one(cache, i, i * 100)
        stats = cache.stats()
        assert len(cache) == 4
        assert stats.size == 4
        assert stats.evictions == 6
        # the four most recently used keys survive
        assert _one(cache, 9, "rebuilt") == 900

    def test_least_recently_used_is_evicted_first(self):
        cache = VariantCipherCache(2)
        _one(cache, "a", 1)
        _one(cache, "b", 2)
        _one(cache, "a", "miss")  # refresh a
        _one(cache, "c", 3)  # evicts b, not a
        assert _one(cache, "a", "rebuilt") == 1
        assert _one(cache, "b", "rebuilt") == "rebuilt"

    def test_hit_rate_reported(self):
        cache = VariantCipherCache(8)
        _one(cache, "k", 0)
        _one(cache, "k", 0)
        _one(cache, "j", 0)
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_clear_keeps_counters(self):
        cache = VariantCipherCache(8)
        _one(cache, "k", 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().misses == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            VariantCipherCache(0)

    def test_factory_runs_once_per_residency(self):
        cache = VariantCipherCache(16)
        calls = []

        def worker():
            for _ in range(50):
                cache.get_or_create(["shared"], lambda missing: [calls.append(1)])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert cache.stats().hits == 199


class TestKeyLists:
    """One call per request: the whole key list under one lock, the
    misses created in one factory call."""

    def test_a_partial_hit_creates_only_what_is_missing(self):
        cache = VariantCipherCache(8)
        cache.get_or_create(["a", "c"], lambda missing: [k.upper() for k in missing])
        asked = []

        def factory(missing):
            asked.append(list(missing))
            return [k.upper() for k in missing]

        assert cache.get_or_create(["a", "b", "c", "d"], factory) == ["A", "B", "C", "D"]
        assert asked == [["b", "d"]]  # in request order, one call
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.size) == (2, 4, 4)
        assert cache.get_or_create(["d", "a"], factory) == ["D", "A"]
        assert asked == [["b", "d"]]  # all resident: the factory is not called

    def test_a_request_larger_than_the_cache_gets_all_its_values(self):
        """Bounds are enforced after the inserts: the call cannot evict
        its own later rows before reaching them, and what stays are the
        last ``capacity`` keys of the request."""
        inserted = []
        cache = VariantCipherCache(4, on_insert=inserted.append)
        made = [np.zeros(k + 1, dtype=np.uint8) for k in range(10)]
        values = cache.get_or_create(list(range(10)), lambda missing: made)
        assert all(got is want for got, want in zip(values, made))
        stats = cache.stats()
        assert (stats.misses, stats.evictions, stats.size) == (10, 6, 4)
        assert stats.current_bytes == 7 + 8 + 9 + 10
        assert inserted == [cache]  # once, after the inserts
        again = cache.get_or_create([6, 7, 8, 9], lambda missing: 1 / 0)
        assert all(got is want for got, want in zip(again, made[6:]))
        assert inserted == [cache]  # a pure hit inserts nothing

    def test_hits_are_touched_before_the_misses_are_inserted(self):
        """The one place the counters can differ from the per-row
        sequence: a request's resident rows are older than the rows it
        creates, so an overflowing request evicts its own hits first."""
        cache = VariantCipherCache(3)
        cache.get_or_create(["a", "b", "c"], lambda missing: missing)
        cache.get_or_create(["x", "a", "y", "z"], lambda missing: missing)
        assert cache.stats().evictions == 3  # b, c, then the hit a
        assert cache.get_or_create(["x", "y", "z"], lambda missing: 1 / 0) == [
            "x", "y", "z"
        ]
        assert cache.get_or_create(["a"], lambda missing: ["again"]) == ["again"]

    def test_key_lists_are_checked(self):
        cache = VariantCipherCache(4)
        with pytest.raises(ValueError, match="distinct"):
            cache.get_or_create(["a", "a"], lambda missing: missing)
        with pytest.raises(ValueError, match="1 values for 2 missing"):
            cache.get_or_create(["a", "b"], lambda missing: ["only one"])
        assert len(cache) == 0 and cache.stats().current_bytes == 0
        assert cache.get_or_create([], lambda missing: 1 / 0) == []
