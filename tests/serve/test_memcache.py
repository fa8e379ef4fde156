"""Tests for the in-memory result tier a server answers hits from (the
engine's :class:`repro.exec.memo.ResultMemo`, reported as ``memcache``)."""

import sys
import threading

import pytest

from repro.exec import memo
from repro.exec.memo import ResultMemo


@pytest.fixture(autouse=True)
def sized(monkeypatch):
    """A stored value ``n`` serialises to ``n`` bytes, so each test
    picks its entries' sizes; its fingerprint is its key."""
    calls = []

    def wire(n):
        calls.append(n)
        return b"x" * n

    monkeypatch.setattr(memo, "result_bytes", wire)
    monkeypatch.setattr(memo, "key_fingerprint", str)
    return calls


class TestBasics:
    def test_miss_then_hit(self, sized):
        cache = ResultMemo(max_entries=4)
        assert cache.get("a") is None
        stored = cache.put("a", 10)
        assert sized == [10]            # serialised once, by the put
        entry = cache.get("a")
        assert entry is stored
        assert (entry.result, entry.wire, entry.fingerprint) == \
            (10, b"x" * 10, "a")
        assert sized == [10]            # a hit serialises nothing

    def test_refresh_replaces_value_and_bytes(self):
        cache = ResultMemo(max_entries=4)
        cache.put("a", 100)
        cache.put("a", 7)
        assert cache.get("a").result == 7
        assert len(cache) == 1
        assert cache.bytes == 7

    def test_contains_and_len(self):
        cache = ResultMemo(max_entries=4)
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_clear_keeps_lifetime_counters(self):
        cache = ResultMemo(max_entries=1)
        cache.put("a", 1)
        cache.put("b", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.bytes == 0
        assert (cache.puts, cache.evictions) == (2, 1)

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValueError):
            ResultMemo(max_entries=0)
        with pytest.raises(ValueError):
            ResultMemo(max_bytes=0)

    def test_unbounded_memo_keeps_everything_and_serialises_nothing(
            self, sized):
        """The CLI's memo: every result stays, as the object stored,
        and none is serialised unless its wire form is asked for."""
        cache = ResultMemo()
        values = [object() for _ in range(300)]
        for i, value in enumerate(values):
            cache.put(i, value)
        assert len(cache) == 300 and cache.evictions == 0
        assert all(cache.get(i).result is v for i, v in enumerate(values))
        assert sized == [] and cache.bytes == 0


class TestEviction:
    def test_lru_evicts_least_recently_used(self):
        cache = ResultMemo(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 1)
        cache.get("a")          # b is now least recently used
        cache.put("c", 1)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_byte_cap_evicts_until_under(self):
        cache = ResultMemo(max_entries=100, max_bytes=10)
        cache.put("a", 4)
        cache.put("b", 4)
        cache.put("c", 4)       # 12 bytes > 10 -> evict oldest-used
        assert cache.bytes <= 10
        assert "a" not in cache
        assert len(cache) == 2

    def test_oversized_value_cached_alone(self):
        """An entry larger than max_bytes still caches (by itself)."""
        cache = ResultMemo(max_entries=100, max_bytes=10)
        cache.put("small", 2)
        cache.put("big", 50)
        assert "big" in cache
        assert len(cache) == 1
        assert cache.get("big").result == 50

    def test_eviction_order_is_deterministic(self):
        """Recency is a logical clock, so eviction replays identically."""
        def run():
            cache = ResultMemo(max_entries=3)
            for i in range(10):
                cache.put(f"k{i}", 1)
                if i % 2 == 0:
                    cache.get("k0")
            return sorted(cache._entries), cache.evictions
        assert run() == run()


class TestStats:
    def test_stats_snapshot(self):
        cache = ResultMemo(max_entries=2, max_bytes=100)
        cache.put("a", 10)
        cache.get("a")
        cache.get("zzz")
        assert cache.stats() == {
            "entries": 1, "max_entries": 2, "bytes": 10, "max_bytes": 100,
            "evictions": 0, "puts": 1}


class TestThreads:
    def test_concurrent_puts_and_gets_lose_no_update(self):
        """The engine's executor thread stores while the event loop
        reads: four threads hammer one small tier with the interpreter
        switching threads as often as it can."""
        cache = ResultMemo(max_entries=8, max_bytes=200)
        rounds, workers = 2000, 4
        errors = []

        def work(seed):
            try:
                for n in range(rounds):
                    key = (seed * 7 + n) % 23
                    cache.put(key, 1 + key % 5)
                    entry = cache.get((key + seed) % 23)
                    assert entry is None or entry.result == 1 + entry.key % 5
            except Exception as exc:        # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.puts == rounds * workers
        assert len(cache) <= 8
        assert len(cache) + cache.evictions <= cache.puts
        assert cache.bytes == sum(len(e.wire) for e in cache._entries.values())
        assert cache.bytes <= 200
