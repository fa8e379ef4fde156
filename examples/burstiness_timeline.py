#!/usr/bin/env python
"""Visualize the paper's Section I claim: bursty L1 misses congest the
memory system, and CAPS smooths them.

Runs one benchmark twice — baseline and CAPS — with the windowed
metric series on (``obs.metrics``, one sample per 150 cycles), and
renders sparkline timelines of issue
rate, all-warps-stalled cycles, LSU replay pressure, warps waiting on
memory and DRAM queue depth.  In the baseline the load phases show as
demand waves saturating the DRAM queue; under CAPS the prefetch
in-flight row fills the former quiet gaps and the waiting-warp waves
shrink.

Run:  python examples/burstiness_timeline.py [BENCH]
"""

import os
import sys

from repro import small_config
from repro.analysis import burstiness, render_timeline, run_benchmark
from repro.workloads import Scale

#: Override with REPRO_SCALE=tiny for quick smoke runs.
SCALE = Scale(os.environ.get("REPRO_SCALE", "small"))


def run(bench, engine):
    """One run (CAPS pairs with PAS by default) and its metric series."""
    config = small_config().with_obs(metrics=True, window=150)
    result = run_benchmark(bench, engine, config=config, scale=SCALE)
    return result, result.extra["timeseries"]


def main() -> None:
    bench = (sys.argv[1] if len(sys.argv) > 1 else "CNV").upper()
    base, base_series = run(bench, "none")
    caps, caps_series = run(bench, "caps")

    print(f"{bench} baseline  (IPC {base.ipc:.3f}, "
          f"DRAM burstiness {burstiness(base_series):.2f})")
    print(render_timeline(base_series))
    print()
    print(f"{bench} with CAPS (IPC {caps.ipc:.3f}, "
          f"{caps.ipc / base.ipc:.3f}x, "
          f"DRAM burstiness {burstiness(caps_series):.2f})")
    print(render_timeline(caps_series))


if __name__ == "__main__":
    main()
