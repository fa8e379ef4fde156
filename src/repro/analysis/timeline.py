"""Execution timelines: a sparkline view of the sampled metric series.

The paper's Section I argument is *temporal*: L1 misses arrive in
bursts, the memory system congests, and every warp ends up waiting at
once.  :class:`repro.obs.MetricsCollector` already samples the machine
every ``obs.window`` cycles — issue/stall counters, warps waiting on
memory, DRAM queue depth — so this module only *renders* that series
(``SimResult.extra["timeseries"]``), letting burstiness (and what CAPS
does to it) be seen, not just inferred from end-of-run totals.

Usage::

    cfg = small_config().with_obs(metrics=True, window=200)
    payload = simulate(build("CNV", Scale.SMALL), cfg).extra["timeseries"]
    print(render_timeline(payload, width=72))
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.collector import series

_BLOCKS = " ▁▂▃▄▅▆▇█"

#: Rendered rows: (label, series column, column is a per-window counter
#: delta shown as a fraction of the window's SM-cycles).
ROWS = (
    ("issue   ", "instructions", True),
    ("stalled ", "stall_mem_all", True),
    ("replay  ", "replay_cycles", True),
    ("waiting ", "waiting_warps", False),
    ("dram q  ", "dram_queue_depth", False),
    ("pf infl ", "prefetch_inflight", False),
)


def window_fractions(payload: Dict[str, Any], field: str) -> List[float]:
    """A counter column as a fraction of each window's SM-cycles (the
    final window of a run is usually shorter than ``payload["window"]``)."""
    out: List[float] = []
    prev = 0
    for cycle, value in zip(series(payload, "cycle"), series(payload, field)):
        out.append(value / (max(1, cycle - prev) * payload["num_sms"]))
        prev = cycle
    return out


def burstiness(payload: Dict[str, Any],
               field: str = "dram_queue_depth") -> float:
    """Coefficient of variation of a series column — the paper's burst
    claim in one number (higher = burstier demand)."""
    vals = series(payload, field)
    if not vals:
        return 0.0
    m = sum(vals) / len(vals)
    if m == 0:
        return 0.0
    var = sum((v - m) ** 2 for v in vals) / len(vals)
    return var ** 0.5 / m


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Render a series as a unicode sparkline (resampled to ``width``)."""
    vals = list(values)
    if not vals:
        return ""
    if width is not None and width > 0 and len(vals) > width:
        bucket = len(vals) / width
        vals = [
            max(vals[int(i * bucket):max(int(i * bucket) + 1,
                                         int((i + 1) * bucket))])
            for i in range(width)
        ]
    top = max(vals)
    if top <= 0:
        return _BLOCKS[0] * len(vals)
    out = []
    for v in vals:
        idx = int(round((len(_BLOCKS) - 1) * max(0.0, v) / top))
        out.append(_BLOCKS[idx])
    return "".join(out)


def render_timeline(payload: Dict[str, Any], width: int = 72) -> str:
    """Multi-row sparkline view of a run's ``extra["timeseries"]``."""
    lines = []
    for label, field, is_counter in ROWS:
        vals = (window_fractions(payload, field) if is_counter
                else series(payload, field))
        peak = max(vals) if vals else 0
        lines.append(f"{label}|{sparkline(vals, width)}| peak={peak:.2f}")
    return "\n".join(lines)
