"""In-memory result cache: the hot tier above the on-disk ResultCache.

The serving stack caches at three levels:

1. this **memcache** — deserialized :class:`~repro.result.SimResult`
   objects keyed by cell fingerprint, answered without touching the
   executor thread at all (sub-microsecond hit path);
2. the engine's **in-process memo** (exact-object reuse inside one
   dispatch batch);
3. the persistent **disk cache** (:class:`repro.exec.cache.ResultCache`)
   shared with the serial CLI and across server restarts.

Eviction is least-recently-used: entries live in one access-ordered
``OrderedDict`` (a hit or a refresh moves the entry to the end, the
victim is the first key), so eviction order is a pure function of the
operation sequence and replays deterministically.

Both an entry-count cap and an approximate byte cap (sum of each
entry's canonical serialized size) bound the tier; ``hits`` /
``misses`` / ``evictions`` feed the ``stats`` introspection request.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.config import DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES
from repro.errors import ConfigError
from repro.serve.stats import MemcacheStats


class ServeMemCache:
    """Bounded in-memory fingerprint -> result LRU with eviction stats."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        if max_entries < 1:
            raise ConfigError(f"max_entries must be >= 1 (got {max_entries})")
        if max_bytes < 1:
            raise ConfigError(f"max_bytes must be >= 1 (got {max_bytes})")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # fingerprint -> (value, size_bytes), least recently used first.
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> Optional[Any]:
        """Return the cached value for ``fingerprint`` or ``None``,
        counting the hit or miss and refreshing the entry's recency."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry[0]

    def put(self, fingerprint: str, value: Any, size_bytes: int) -> None:
        """Insert (or refresh) an entry, evicting until under both caps.

        ``size_bytes`` is the entry's accounting weight — the serving
        layer passes the canonical serialized size of the result, so the
        byte cap tracks what the payloads would occupy on the wire.  A
        value larger than ``max_bytes`` is cached alone (the cache never
        rejects; it just cannot hold anything else beside it).
        """
        old = self._entries.pop(fingerprint, None)
        if old is not None:
            self.current_bytes -= old[1]
        size_bytes = max(0, size_bytes)
        self._entries[fingerprint] = (value, size_bytes)
        self.current_bytes += size_bytes
        self.puts += 1
        # The newcomer is the last key, and a lone oversized entry is
        # never over the caps, so it is never its own victim.
        while (len(self._entries) > self.max_entries
               or (self.current_bytes > self.max_bytes
                   and len(self._entries) > 1)):
            _, (_, victim_bytes) = self._entries.popitem(last=False)
            self.current_bytes -= victim_bytes
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime values)."""
        self._entries.clear()
        self.current_bytes = 0

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups since construction (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """Snapshot for the ``stats`` introspection request (the
        :class:`~repro.serve.stats.MemcacheStats` block)."""
        return asdict(MemcacheStats(
            entries=len(self._entries),
            max_entries=self.max_entries,
            bytes=self.current_bytes,
            max_bytes=self.max_bytes,
            hits=self.hits,
            misses=self.misses,
            hit_ratio=round(self.hit_ratio, 4),
            evictions=self.evictions,
            puts=self.puts,
        ))
