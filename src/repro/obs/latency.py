"""Per-stage latency recording for host-side services (repro.serve).

The simulator's own observability is cycle-denominated (see
:mod:`repro.obs.collector`); the serving layer needs the wall-clock
equivalent — how long a request waited in the admission queue, how long
its batch took to dispatch, how long the client-visible round trip was.
:class:`LatencyRecorder` keeps a bounded reservoir of samples per stage
and summarizes them as count / mean / p50 / p90 / p99 / max, which is
what the ``stats`` introspection request reports (``perfbench`` reads
its ``serve.queue_wait.*`` / ``serve.*_stage.*`` metrics from there).

Samples are stored in per-stage ring buffers (``capacity`` most recent
samples), so a long-lived server's stats reflect recent behaviour and
memory stays bounded; ``totals`` counts every sample ever recorded.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence

#: Quantiles reported by :meth:`LatencyRecorder.summary`.
SUMMARY_QUANTILES = (0.50, 0.90, 0.99)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 1]).

    Returns 0.0 for an empty sample set — the serving stats must be
    renderable before the first request completes.
    """
    if not samples:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1] (got {q})")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class LatencyRecorder:
    """Bounded per-stage latency reservoir with percentile summaries.

    Stages are created on first use; pre-declaring them (``stages=``)
    just guarantees they appear in :meth:`summary` with zero counts,
    which keeps the stats payload's shape stable for dashboards.
    """

    def __init__(self, stages: Iterable[str] = (), capacity: int = 2048):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1 (got {capacity})")
        self.capacity = capacity
        self._samples: Dict[str, deque] = {
            s: deque(maxlen=capacity) for s in stages
        }
        self.totals: Dict[str, int] = {s: 0 for s in self._samples}

    def record(self, stage: str, seconds: float) -> None:
        """Add one latency sample (in seconds) to ``stage``."""
        if seconds < 0:
            seconds = 0.0
        bucket = self._samples.get(stage)
        if bucket is None:
            bucket = self._samples[stage] = deque(maxlen=self.capacity)
            self.totals[stage] = 0
        bucket.append(seconds)
        self.totals[stage] += 1

    def samples(self, stage: str) -> List[float]:
        """The retained samples for ``stage`` (oldest first)."""
        return list(self._samples.get(stage, ()))

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-stage ``{count, mean, p50, p90, p99, max}`` (seconds).

        ``count`` is the lifetime total; the quantiles and mean cover
        the retained reservoir (the most recent ``capacity`` samples).
        """
        out: Dict[str, Dict[str, float]] = {}
        for stage, bucket in self._samples.items():
            data = list(bucket)
            entry = {
                "count": self.totals[stage],
                "mean": (sum(data) / len(data)) if data else 0.0,
                "max": max(data) if data else 0.0,
            }
            for q in SUMMARY_QUANTILES:
                entry[f"p{int(q * 100)}"] = percentile(data, q)
            out[stage] = entry
        return out
