"""Tests for the in-memory result tier (repro.serve.memcache)."""

import pytest

from repro.serve.memcache import ServeMemCache


class TestBasics:
    def test_miss_then_hit(self):
        cache = ServeMemCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", "va", 10)
        assert cache.get("a") == "va"
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_refresh_replaces_value_and_bytes(self):
        cache = ServeMemCache(max_entries=4)
        cache.put("a", "old", 100)
        cache.put("a", "new", 7)
        assert cache.get("a") == "new"
        assert len(cache) == 1
        assert cache.current_bytes == 7

    def test_contains_and_len(self):
        cache = ServeMemCache(max_entries=4)
        cache.put("a", 1, 1)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_clear_keeps_lifetime_counters(self):
        cache = ServeMemCache(max_entries=4)
        cache.put("a", 1, 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0
        assert cache.hits == 1
        assert cache.puts == 1

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            ServeMemCache(max_entries=0)
        with pytest.raises(ValueError):
            ServeMemCache(max_bytes=0)


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        cache = ServeMemCache(max_entries=2)
        cache.put("a", 1, 1)
        cache.put("b", 2, 1)
        cache.get("a")          # b is now least recently used
        cache.put("c", 3, 1)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_byte_cap_evicts_until_under(self):
        cache = ServeMemCache(max_entries=100, max_bytes=10)
        cache.put("a", 1, 4)
        cache.put("b", 2, 4)
        cache.put("c", 3, 4)    # 12 bytes > 10 -> evict oldest-used
        assert cache.current_bytes <= 10
        assert "a" not in cache
        assert len(cache) == 2

    def test_oversized_value_cached_alone(self):
        """An entry larger than max_bytes still caches (by itself)."""
        cache = ServeMemCache(max_entries=100, max_bytes=10)
        cache.put("small", 1, 2)
        cache.put("big", 2, 50)
        assert "big" in cache
        assert len(cache) == 1
        assert cache.get("big") == 2

    def test_eviction_order_is_deterministic(self):
        """Recency is a logical clock, so eviction replays identically."""
        def run():
            cache = ServeMemCache(max_entries=3)
            survivors = []
            for i in range(10):
                cache.put(f"k{i}", i, 1)
                if i % 2 == 0:
                    cache.get("k0")
            survivors = sorted(fp for fp in cache._entries)
            return survivors, cache.evictions
        assert run() == run()


class TestStats:
    def test_stats_snapshot(self):
        cache = ServeMemCache(max_entries=2, max_bytes=100)
        cache.put("a", 1, 10)
        cache.get("a")
        cache.get("zzz")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 2
        assert stats["bytes"] == 10
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_ratio"] == 0.5
        assert stats["puts"] == 1
        assert stats["evictions"] == 0

