"""The one in-memory result tier: :class:`RunKey` → result, LRU.

:class:`~repro.exec.runner.ExecutionEngine` keeps every result it
produces or reads from disk in its :class:`ResultMemo`, unbounded by
default, so a batch CLI run reads each cell back as the object it
produced.  ``repro serve`` bounds it by ``--memcache-entries`` /
``--memcache-bytes`` and answers hits from it on the event loop while
the engine fills it on an executor thread, hence the lock.  Eviction is
least-recently-used (a hit or a refresh moves an entry to the end of one
``OrderedDict``; the victim is its first key), so it replays exactly for
a sequence of operations.  The byte cap counts canonical wire bytes; an
entry larger than it is kept alone, never rejected.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import cached_property
from typing import Any, Dict, Optional

from repro.errors import ConfigError
from repro.exec.cache import RunKey, key_fingerprint, result_bytes
from repro.result import SimResult


class MemoEntry:
    """A stored result and what a served answer carries besides it, each
    computed at most once: its canonical wire bytes (what
    :func:`repro.serve.protocol.encode_ok` splices in) and fingerprint."""

    def __init__(self, key: RunKey, result: SimResult):
        self.key = key
        self.result = result

    @cached_property
    def wire(self) -> bytes:
        return result_bytes(self.result)

    @cached_property
    def fingerprint(self) -> str:
        return key_fingerprint(self.key)


class ResultMemo:
    """Thread-safe ``RunKey`` → :class:`MemoEntry` LRU, unbounded unless
    given an entry cap, a byte cap or both; a bounded memo serialises
    and fingerprints each entry in :meth:`put`, on the storing thread."""

    def __init__(self, max_entries: Optional[int] = None,
                 max_bytes: Optional[int] = None):
        for name, cap in (("max_entries", max_entries),
                          ("max_bytes", max_bytes)):
            if cap is not None and cap < 1:
                raise ConfigError(f"{name} must be >= 1 (got {cap})")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.bounded = max_entries is not None or max_bytes is not None
        self._entries: "OrderedDict[RunKey, MemoEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = self.puts = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: RunKey) -> bool:
        return key in self._entries

    def _size(self, entry: MemoEntry) -> int:
        return len(entry.wire) if self.bounded else 0

    def _over(self) -> bool:
        count = len(self._entries)
        return ((self.max_entries is not None and count > self.max_entries)
                or (self.max_bytes is not None and count > 1
                    and self.bytes > self.max_bytes))

    def get(self, key: RunKey) -> Optional[MemoEntry]:
        """The entry for ``key`` (now the most recently used), or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: RunKey, result: SimResult) -> MemoEntry:
        """Store (or refresh) ``key``, evicting until under both caps; the
        newcomer is last, so it is never its own victim."""
        entry = MemoEntry(key, result)
        size = self._size(entry)
        if self.bounded:
            entry.fingerprint           # cached now, off the event loop
        with self._lock:
            old = self._entries.pop(key, None)
            self.bytes += size - (self._size(old) if old else 0)
            self._entries[key] = entry
            self.puts += 1
            while self._over():
                self.bytes -= self._size(self._entries.popitem(last=False)[1])
                self.evictions += 1
        return entry

    def clear(self) -> None:
        """Drop every entry (``puts`` / ``evictions`` keep their counts)."""
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def stats(self) -> Dict[str, Any]:
        """The tier's fields of the ``memcache`` stats block
        (:class:`~repro.serve.stats.MemcacheStats`)."""
        with self._lock:
            return dict(entries=len(self._entries),
                        max_entries=self.max_entries, bytes=self.bytes,
                        max_bytes=self.max_bytes, evictions=self.evictions,
                        puts=self.puts)
