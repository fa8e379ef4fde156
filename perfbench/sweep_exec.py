"""The figure path as its user runs it: ``python -m repro figures`` in a
subprocess, cold on an empty cache and then warm on the same cache.

Cold is spawn, pickling and cache *writes* around many small cells;
warm is cache *reads*, the analysis layer and the CLI's import with no
simulation at all: the ``exec`` layer used both ways by one command.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List

from harness import NPROC, Tracer, median, run_child, summary

#: Head of ``--benchmarks``: ``repro figures`` runs the Figure 11 CTA
#: sweep on the first two names, so these stay put and the seed orders
#: the rest; every seed simulates the same cells in another order.
FIXED_HEAD = ("CP", "SCN")
SEEDED_TAIL = ("JC1", "LPS")

#: The issue sized this at three benchmarks at ``--scale small`` (25 to
#: 40 s cold).  A run has about 20 s for several cold and many warm
#: invocations, so it is the four cheapest benchmarks at ``tiny``:
#: 2 s of cold work that is almost all exec-layer overhead.
SCALE = "tiny"

COLD_RUNS = 5
MIN_WARM_RUNS = 3


def benchmarks_for(seed: int, smoke: bool = False) -> str:
    tail = list(SEEDED_TAIL)
    random.Random(seed).shuffle(tail)
    names = FIXED_HEAD if smoke else FIXED_HEAD + tuple(tail)
    return ",".join(names)


def setup(ctx) -> Dict[str, str]:
    """What the user pays before ``figures`` does any work: a fresh
    directory and the CLI's import."""
    shutil.rmtree(ctx.tmp / "sweep", ignore_errors=True)
    (ctx.tmp / "sweep").mkdir()
    wall, _ = run_child(["-c", "import repro.cli"], ctx.tmp, ctx.ledger,
                        "import repro.cli")
    return {"benchmarks": benchmarks_for(ctx.seed, ctx.smoke),
            "import_s": wall}


def teardown(ctx, state) -> None:
    pass


class Invocation:
    """One ``repro figures`` process: wall time, report, event counts."""

    def __init__(self, ctx, benchmarks: str, index: int, cache: Path,
                 kind: str, traced: bool = True):
        self.traced = traced
        tracer = ctx.tracer if traced else Tracer(False)
        work = ctx.tmp / "sweep"
        events = work / f"events-{index}.jsonl"
        out = work / f"out-{index}"
        with tracer.span(f"cli.figures.{kind}", index=index):
            self.wall, _ = run_child(
                ["-m", "repro", "figures", "--benchmarks", benchmarks,
                 "--scale", SCALE, "--jobs", str(NPROC),
                 "--cache", str(cache), "--events-log", str(events),
                 "--out", str(out)],
                ctx.tmp, ctx.ledger, f"repro figures ({kind})")
        report = out / "EXPERIMENTS.md"
        self.report = report.read_text() if report.exists() else None
        records = ([json.loads(line)
                    for line in events.read_text().splitlines()]
                   if events.exists() else [])
        self.events: List[str] = [r["kind"] for r in records]
        self.kinds = Counter(self.events)
        self.disk_hits = sum(1 for r in records if r["kind"] == "cache_hit"
                             and r.get("detail") == "disk")

    def pools_spawned(self) -> int:
        """Worker pools the run created: the engine spawns one for each
        batch that queues two or more cells at ``jobs`` > 1."""
        pools = run = 0
        for kind in self.events + ["end"]:
            if kind == "queued":
                run += 1
            else:
                pools += run >= 2 and NPROC > 1
                run = 0
        return pools


def measure(ctx, state) -> Dict[str, float]:
    benchmarks = state["benchmarks"]
    work = ctx.tmp / "sweep"
    deadline = time.perf_counter() + ctx.seconds
    cold: List[Invocation] = []
    warm: List[Invocation] = []
    for index in range(ctx.few(COLD_RUNS)):
        cold.append(Invocation(ctx, benchmarks, index, work / f"cache-{index}",
                               "cold"))
    cache = work / "cache-0"
    longest = 0.0
    while (len(warm) < (2 if ctx.smoke else MIN_WARM_RUNS)
           or time.perf_counter() + longest < deadline):
        # A traced run leaves every other warm invocation unwrapped, to
        # have an untraced side to compare the wrapped ones with.
        warm.append(Invocation(ctx, benchmarks, len(cold) + len(warm), cache,
                               "warm", traced=len(warm) % 2 == 0))
        longest = max(longest, warm[-1].wall)
    if ctx.ledger.failed:
        return {}

    reference = cold[0].report
    for run in cold[1:] + warm:
        ctx.ledger.check(run.report is not None and run.report == reference,
                         "EXPERIMENTS.md differs from the first cold run's")
    for run in warm:
        ctx.ledger.check(run.kinds["started"] == 0 and run.kinds["cache_hit"],
                         f"warm run simulated {run.kinds['started']} cell(s)")
    cells = cold[0].kinds["started"]
    ctx.ledger.check(cells > 0 and all(r.kinds["started"] == cells
                                       for r in cold),
                     "cold runs did not all simulate the same cells")

    cold_s = min(r.wall for r in cold)
    warm_walls = [r.wall for r in warm]
    ctx.note(f"--benchmarks {benchmarks} --scale {SCALE} --jobs {NPROC}")
    ctx.note(f"cold: {summary([r.wall for r in cold])}")
    ctx.note(f"warm: {summary(warm_walls)}")
    out = {
        "wall_s": cold_s + median(warm_walls),
        "work_per_s": cells / cold_s,
        "p50_ms": median(warm_walls) * 1e3,
        "tail_ms": cold_s * 1e3,
        "cli_s": min(warm_walls),
    }
    if ctx.trace:
        out.update(_layer_metrics(ctx, state, cold, warm))
    return out


def _layer_metrics(ctx, state, cold, warm) -> Dict[str, float]:
    import exec_probes

    probes = exec_probes.measure(ctx)
    warm_s = median([r.wall for r in warm])
    reads_s = warm[0].disk_hits * probes["exec.cache.get_ms"] / 1e3
    out = {
        "exec.cells_started": cold[0].kinds["started"],
        "exec.warm_cells_started": sum(r.kinds["started"] for r in warm),
        "exec.cache_hits": warm[0].kinds["cache_hit"],
        "exec.retries": sum(r.kinds["retry"] for r in cold + warm),
        "exec.pools_spawned": cold[0].pools_spawned(),
        "cli.import_s": state["import_s"],
        "analysis.figures_render_s":
            max(0.0, warm_s - state["import_s"] - reads_s),
        "host.trace_overhead":
            median([r.wall for r in warm if r.traced])
            / median([r.wall for r in warm if not r.traced]),
    }
    out.update(probes)
    return out
