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

An entry produced by the predictive dispatcher rather than a real
request carries a **speculative** flag.  Speculative entries that no
demand request has read yet are evicted *first* under pressure
(speculation sheds before real traffic, in the cache as in the
admission queue); the first demand hit clears the flag and counts
``spec_hits``.

Both an entry-count cap and an approximate byte cap (sum of each
entry's canonical serialized size) bound the tier; ``hits`` /
``misses`` / ``evictions`` feed the ``stats`` introspection request.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

from repro.config import DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES
from repro.errors import ConfigError
from repro.serve.stats import MemcacheStats


@dataclass
class CacheEntry:
    """One memcache slot: the value, its weight and its speculation bit."""

    value: Any
    size_bytes: int
    speculative: bool = False


@dataclass(frozen=True)
class CacheRecord:
    """One lookup outcome: the value plus whether speculation warmed it.

    ``speculative_hit`` is True exactly once per speculative entry —
    on the first demand read, which also clears the entry's flag.
    """

    value: Any
    speculative_hit: bool


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
        # Least recently used first.
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.current_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0
        # Speculation bookkeeping: puts by the predictive dispatcher,
        # first-demand-reads of such entries, evictions that removed a
        # never-read speculative entry (wasted speculation), and how
        # many never-read speculative entries are resident right now.
        self.spec_puts = 0
        self.spec_hits = 0
        self.spec_evictions = 0
        self.spec_entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def peek(self, fingerprint: str) -> Optional[Any]:
        """Return the cached value without touching counters or recency.

        The predictive dispatcher uses this to short-circuit predictions
        that are already resident — a peek must not perturb hit ratios
        or recency, or speculation would bias the eviction order.
        """
        entry = self._entries.get(fingerprint)
        return entry.value if entry is not None else None

    def lookup(self, fingerprint: str) -> Optional[CacheRecord]:
        """Demand lookup: record hit/miss, return value + speculation bit.

        The first demand read of a speculatively-warmed entry returns
        ``speculative_hit=True``, clears the entry's flag (it is now
        proven useful and competes for retention like any real entry)
        and counts ``spec_hits``.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        first_spec_hit = entry.speculative
        if first_spec_hit:
            entry.speculative = False
            self.spec_entries -= 1
            self.spec_hits += 1
        return CacheRecord(entry.value, first_spec_hit)

    def get(self, fingerprint: str) -> Optional[Any]:
        """Return the cached value for ``fingerprint`` or ``None``."""
        record = self.lookup(fingerprint)
        return record.value if record is not None else None

    def put(self, fingerprint: str, value: Any, size_bytes: int,
            speculative: bool = False) -> None:
        """Insert (or refresh) an entry, evicting until under both caps.

        ``size_bytes`` is the entry's accounting weight — the serving
        layer passes the canonical serialized size of the result, so the
        byte cap tracks what the payloads would occupy on the wire.  A
        value larger than ``max_bytes`` is cached alone (the cache never
        rejects; it just cannot hold anything else beside it).

        ``speculative`` marks entries landed by the predictive
        dispatcher (evicted first while unread; refreshing an existing
        real entry never demotes it to speculative).
        """
        old = self._entries.pop(fingerprint, None)
        if old is not None:
            self._forget(old)
            # A refresh of a demand-proven entry stays demand-proven.
            speculative = speculative and old.speculative
        size_bytes = max(0, size_bytes)
        self._entries[fingerprint] = CacheEntry(value, size_bytes,
                                                speculative)
        self.current_bytes += size_bytes
        self.puts += 1
        if speculative:
            self.spec_puts += 1
            self.spec_entries += 1
        self._evict_to_caps(fingerprint)

    def _forget(self, entry: CacheEntry) -> None:
        """Take a removed entry out of the residency accounting."""
        self.current_bytes -= entry.size_bytes
        if entry.speculative:
            self.spec_entries -= 1

    def _over_caps(self) -> bool:
        return (len(self._entries) > self.max_entries
                or (self.current_bytes > self.max_bytes
                    and len(self._entries) > 1))

    def _evict_to_caps(self, newcomer: str) -> None:
        """Evict until under both caps; ``newcomer`` is what room is
        being made for, so it is never the victim (it is the last key,
        and a lone oversized entry is never over the caps)."""
        while self._over_caps():
            victim = next(iter(self._entries))
            if self.spec_entries:
                # Speculation sheds first: the least recently used
                # unread speculative entry goes before any real one.
                victim = next(
                    (fp for fp, entry in self._entries.items()
                     if entry.speculative and fp != newcomer), victim)
            entry = self._entries.pop(victim)
            self._forget(entry)
            self.evictions += 1
            if entry.speculative:
                self.spec_evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime values)."""
        self._entries.clear()
        self.current_bytes = 0
        self.spec_entries = 0

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
            spec_puts=self.spec_puts,
            spec_hits=self.spec_hits,
            spec_evictions=self.spec_evictions,
            spec_entries=self.spec_entries,
        ))
