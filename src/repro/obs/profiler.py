"""Host-side phase profiling (the profiling third of :mod:`repro.obs`).

:class:`PhaseProfiler` accumulates wall-clock time per named simulator
*phase* (SM issue pipelines, memory-subsystem cycling, obs flushes,
deep checks).  With ``ObsConfig.profile`` on, the one main loop
(:func:`repro.sim.fastcore.run_loop`) reads ``perf_counter`` around the
phases of whichever engine step is configured — so the profile
describes the loop that runs in production — and
:meth:`PhaseProfiler.as_dict` lands under
``SimResult.extra["profile"]``.

Because the payload is plain JSON it rides the :mod:`repro.exec` result
transport unchanged: parallel workers pickle it inside ``SimResult``,
the persistent cache stores it verbatim, and sweeps can aggregate
per-cell phase breakdowns with :func:`merge_profiles` next to the
wall-time telemetry the execution engine already emits per cell
(``cell_finished.duration_s`` in the events stream — see
docs/execution.md).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List


class PhaseProfiler:
    """Accumulates ``perf_counter`` time and call counts per phase name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._t0 = time.perf_counter()

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Credit ``seconds`` of wall time (and ``calls`` entries) to a phase."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    @contextmanager
    def phase(self, name: str):
        """Context manager timing one phase entry (convenience form;
        the run loop uses explicit ``perf_counter`` + :meth:`add`)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able summary for ``SimResult.extra["profile"]``."""
        wall = time.perf_counter() - self._t0
        phases = {
            name: {"seconds": self.seconds[name], "calls": self.calls[name]}
            for name in sorted(self.seconds)
        }
        accounted = sum(self.seconds.values())
        return {
            "wall_seconds": wall,
            "accounted_seconds": accounted,
            "other_seconds": max(0.0, wall - accounted),
            "phases": phases,
        }


def merge_profiles(profiles: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate per-cell profile payloads from a sweep into one summary.

    Sums wall/accounted seconds and per-phase seconds/calls across every
    ``SimResult.extra["profile"]`` dict given; cells without a profile
    payload can be filtered out by the caller (``None`` entries are
    skipped here for convenience).
    """
    out: Dict[str, Any] = {
        "cells": 0,
        "wall_seconds": 0.0,
        "accounted_seconds": 0.0,
        "phases": {},
    }
    merged: Dict[str, Dict[str, float]] = out["phases"]
    for prof in profiles:
        if not prof:
            continue
        out["cells"] += 1
        out["wall_seconds"] += prof.get("wall_seconds", 0.0)
        out["accounted_seconds"] += prof.get("accounted_seconds", 0.0)
        for name, entry in prof.get("phases", {}).items():
            slot = merged.setdefault(name, {"seconds": 0.0, "calls": 0})
            slot["seconds"] += entry.get("seconds", 0.0)
            slot["calls"] += entry.get("calls", 0)
    return out


def format_profile(profile: Dict[str, Any]) -> List[str]:
    """Render a profile payload as aligned text lines (CLI ``--profile``)."""
    lines = []
    wall = profile.get("wall_seconds", 0.0)
    lines.append(f"wall time: {wall:.3f}s "
                 f"(accounted {profile.get('accounted_seconds', 0.0):.3f}s)")
    for name, entry in sorted(
        profile.get("phases", {}).items(),
        key=lambda kv: kv[1].get("seconds", 0.0), reverse=True,
    ):
        sec = entry.get("seconds", 0.0)
        share = sec / wall if wall else 0.0
        lines.append(
            f"  {name:<16} {sec:>9.3f}s  {share:>6.1%}  "
            f"{entry.get('calls', 0):>10,} calls"
        )
    return lines
