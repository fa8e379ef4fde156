"""Windowed per-tier cache hit-rate series for the serving stack.

:class:`TierHitSeries` is the serve-side sibling of the simulator's
windowed metrics collector (:mod:`repro.obs.collector`): every demand
lookup against a cache tier is recorded as a (tier, hit) observation,
bucketed into fixed wall-clock windows, and exported as both lifetime
totals and a bounded ring of recent windows.  The serve layer records
three tiers (see ``docs/metrics-glossary.md``):

``memcache``
    the in-memory result tier — one observation per simulate request;
``dedup``
    single-flight joins — observed only on memcache misses (a hit
    means the request joined an already-in-flight cell);
``disk``
    the engine's memo + persistent cache, observed from execution
    events (``cache_hit`` vs ``started``) on the dispatch path.

Windows are keyed by a monotonic clock injected at construction, so
tests drive them deterministically; recording is thread-safe because
disk-tier events arrive from the engine's executor thread while the
request tiers record on the event loop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Tuple

#: Tiers the serving stack records, in pipeline order.
SERVE_TIERS = ("memcache", "dedup", "disk")

#: Default wall-clock width of one aggregation window (seconds).
DEFAULT_WINDOW_S = 1.0

#: Default ring capacity: two minutes of 1-second windows.
DEFAULT_MAX_WINDOWS = 120


class _Window:
    """One aggregation bucket: per-tier (lookups, hits) since its start."""

    __slots__ = ("index", "counts")

    def __init__(self, index: int):
        self.index = index
        self.counts: Dict[str, List[int]] = {}

    def record(self, tier: str, hit: bool) -> None:
        """Add one observation of ``tier`` to this window."""
        pair = self.counts.setdefault(tier, [0, 0])
        pair[0] += 1
        if hit:
            pair[1] += 1


class TierHitSeries:
    """Thread-safe windowed hit-rate recorder over named cache tiers."""

    def __init__(self, tiers: Iterable[str] = SERVE_TIERS,
                 window_s: float = DEFAULT_WINDOW_S,
                 max_windows: int = DEFAULT_MAX_WINDOWS,
                 clock: Callable[[], float] = time.monotonic):
        if window_s <= 0:
            raise ValueError(f"window_s must be > 0 (got {window_s})")
        if max_windows < 1:
            raise ValueError(
                f"max_windows must be >= 1 (got {max_windows})")
        self.window_s = float(window_s)
        self.max_windows = max_windows
        self._clock = clock
        self._start = clock()
        self._lock = threading.Lock()
        self._windows: Deque[_Window] = deque(maxlen=max_windows)
        # tier -> [lookups, hits] since construction.
        self._totals: Dict[str, List[int]] = {t: [0, 0] for t in tiers}

    def record(self, tier: str, hit: bool) -> None:
        """Record one demand lookup against ``tier`` (hit or miss).

        Unknown tiers are admitted on first use, so callers never have
        to pre-register; thread-safe.
        """
        with self._lock:
            totals = self._totals.setdefault(tier, [0, 0])
            totals[0] += 1
            if hit:
                totals[1] += 1
            index = int((self._clock() - self._start) / self.window_s)
            if not self._windows or self._windows[-1].index != index:
                self._windows.append(_Window(index))
            self._windows[-1].record(tier, hit)

    def totals(self, tier: str) -> Tuple[int, int]:
        """Lifetime ``(lookups, hits)`` of one tier (0, 0 if unseen)."""
        with self._lock:
            lookups, hits = self._totals.get(tier, (0, 0))
            return lookups, hits

    def hit_ratio(self, tier: str) -> float:
        """Lifetime hit ratio of one tier (0.0 before any lookup)."""
        lookups, hits = self.totals(tier)
        return hits / lookups if lookups else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able export: lifetime totals plus the recent window ring.

        Windows are created on activity only, so ``index`` values may
        skip over idle periods; a window's wall-clock start is
        ``index * window_s`` after construction.
        """
        with self._lock:
            totals = {
                tier: {
                    "lookups": lookups,
                    "hits": hits,
                    "hit_ratio": round(hits / lookups, 4) if lookups else 0.0,
                }
                for tier, (lookups, hits) in sorted(self._totals.items())
            }
            windows = [
                {
                    "index": window.index,
                    "tiers": {
                        tier: {"lookups": pair[0], "hits": pair[1]}
                        for tier, pair in sorted(window.counts.items())
                    },
                }
                for window in self._windows
            ]
        return {
            "window_s": self.window_s,
            "max_windows": self.max_windows,
            "totals": totals,
            "windows": windows,
        }
