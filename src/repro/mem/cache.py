"""Set-associative cache with LRU replacement and an MSHR file.

Each set is a dict from tag to line kept in recency order: a hit or a
refill moves its tag to the end, so the least recently used line is the
set's first key.

The cache stores only tags and per-line metadata (no data payloads are
simulated).  Lines carry a *prefetched* and a *used* bit so the prefetch
stats unit can classify fills as useful (demand hit before eviction) or
early/useless (evicted unused) — the classification behind Figures 12
and 14a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import CacheConfig
from repro.mem.request import DATACLASS_SLOTS, MemoryRequest


@dataclass(**DATACLASS_SLOTS)
class CacheLine:
    tag: int
    prefetched: bool = False
    used: bool = False
    fill_cycle: int = 0
    prefetch_pc: int = -1
    prefetch_issue_cycle: int = -1


@dataclass
class EvictedLine:
    """Metadata of a victim line returned by :meth:`Cache.fill`."""

    line_addr: int
    prefetched: bool
    used: bool
    prefetch_pc: int = -1


class MshrFullError(Exception):
    """Raised when no MSHR entry can be allocated (reservation failure)."""


@dataclass
class _MshrEntry:
    line_addr: int
    requests: List[MemoryRequest] = field(default_factory=list)

    @property
    def prefetch_only(self) -> bool:
        return all(r.is_prefetch for r in self.requests)


class Mshr:
    """Miss Status Holding Registers: one entry per outstanding line."""

    def __init__(self, entries: int, merge_limit: int = 8):
        if entries < 1:
            raise ValueError("MSHR needs at least one entry")
        self.capacity = entries
        self.merge_limit = merge_limit
        self._entries: Dict[int, _MshrEntry] = {}
        self.peak_occupancy = 0
        # Lifetime allocate/release balance, audited by the invariant
        # checker: allocated == released + len(self) at all times.
        self.allocated = 0
        self.released = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def pending(self, line_addr: int) -> bool:
        return line_addr in self._entries

    def can_merge(self, line_addr: int) -> bool:
        e = self._entries.get(line_addr)
        return e is not None and len(e.requests) < self.merge_limit

    def allocate(self, req: MemoryRequest) -> None:
        """Allocate a new entry for ``req``'s line (must not be pending)."""
        if req.line_addr in self._entries:
            raise ValueError(f"line {req.line_addr:#x} already pending")
        if len(self._entries) >= self.capacity:
            raise MshrFullError(f"MSHR full ({self.capacity} entries)")
        self._entries[req.line_addr] = _MshrEntry(req.line_addr, [req])
        self.allocated += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))

    def merge(self, req: MemoryRequest) -> None:
        """Attach ``req`` to the in-flight entry for its line."""
        e = self._entries.get(req.line_addr)
        if e is None:
            raise KeyError(f"line {req.line_addr:#x} not pending")
        if len(e.requests) >= self.merge_limit:
            raise MshrFullError("MSHR merge limit reached")
        e.requests.append(req)

    def entry_is_prefetch_only(self, line_addr: int) -> bool:
        e = self._entries.get(line_addr)
        if e is None:
            raise KeyError(f"line {line_addr:#x} not pending")
        return e.prefetch_only

    def outstanding_requests(self) -> int:
        """Total requests (allocations + merges) currently held."""
        return sum(len(e.requests) for e in self._entries.values())

    def release(self, line_addr: int) -> List[MemoryRequest]:
        """Remove the entry on fill; returns all merged requests."""
        e = self._entries.pop(line_addr, None)
        if e is None:
            raise KeyError(f"line {line_addr:#x} not pending")
        self.released += 1
        return e.requests


class Cache:
    """Tag store with per-set LRU and optional MSHR file."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        self.line_bytes = config.line_bytes
        self._line_shift = config.line_bytes.bit_length() - 1
        # num_sets is a power of two (enforced by CacheConfig), so the
        # index is a mask and the tag a shift — hot-path arithmetic.
        self._set_mask = self.num_sets - 1
        self._set_shift = self.num_sets.bit_length() - 1
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        self.mshr = Mshr(config.mshr_entries)
        self._tick = 0
        # counters
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def _index_tag(self, line_addr: int):
        line_no = line_addr >> self._line_shift
        return line_no & self._set_mask, line_no >> self._set_shift

    def align(self, addr: int) -> int:
        """Byte address of the line containing ``addr``."""
        return (addr >> self._line_shift) << self._line_shift

    def probe(self, line_addr: int) -> Optional[CacheLine]:
        """Tag check without touching LRU state or counters."""
        line_no = line_addr >> self._line_shift
        return self._sets[line_no & self._set_mask].get(line_no >> self._set_shift)

    def lookup(self, line_addr: int, *, count: bool = True) -> Optional[CacheLine]:
        """Access the cache; updates LRU always and hit/miss counters on
        demand of the caller (``count=False`` for prefetch probes that
        should not perturb miss-rate statistics)."""
        self._tick += 1
        line_no = line_addr >> self._line_shift
        cset = self._sets[line_no & self._set_mask]
        tag = line_no >> self._set_shift
        line = cset.pop(tag, None)
        if count:
            self.accesses += 1
        if line is not None:
            cset[tag] = line
            if count:
                self.hits += 1
            return line
        if count:
            self.misses += 1
        return None

    def fill(
        self,
        line_addr: int,
        *,
        cycle: int = 0,
        prefetched: bool = False,
        prefetch_pc: int = -1,
        prefetch_issue_cycle: int = -1,
    ) -> Optional[EvictedLine]:
        """Insert a line; returns the evicted victim's metadata, if any."""
        self._tick += 1
        line_no = line_addr >> self._line_shift
        idx = line_no & self._set_mask
        tag = line_no >> self._set_shift
        cset = self._sets[idx]
        victim: Optional[EvictedLine] = None
        if cset.pop(tag, None) is None and len(cset) >= self.assoc:
            lru_tag = next(iter(cset))
            old = cset.pop(lru_tag)
            victim_line_no = lru_tag * self.num_sets + idx
            victim = EvictedLine(
                line_addr=victim_line_no << self._line_shift,
                prefetched=old.prefetched,
                used=old.used,
                prefetch_pc=old.prefetch_pc,
            )
        cset[tag] = CacheLine(
            tag=tag,
            prefetched=prefetched,
            used=not prefetched,
            fill_cycle=cycle,
            prefetch_pc=prefetch_pc,
            prefetch_issue_cycle=prefetch_issue_cycle,
        )
        return victim

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        for s in self._sets:
            s.clear()
