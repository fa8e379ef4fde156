"""perfbench: one benchmark for the simulator, the sweep path and the
serve tier, with per-layer attribution.

    python perfbench/run.py [--workload W] [--seed N] [--seconds S]
                            [--trace 0|1 | --traced] [--out FILE] [--smoke]

Runs one workload (or, without ``--workload``, all four in turn),
checks that the program's outputs are correct, prints every metric by
name with its unit, and ends with one JSON line ``{"correct",
"attempted", "failed", "metrics"}``.  End-to-end metrics are measured
with tracing off; ``--trace 1`` re-runs the workload with spans recorded
from this directory only, around calls into each layer's public
functions, and prints the per-layer metrics instead.  ``--out FILE``
appends the run (and, traced, its spans) to a JSON list in FILE, which
is what ``compare.py`` reads.

The metric and workload names, units, directions and regression bounds
are declared once, in ``BENCHMARK.json`` at the root of the checkout;
see ``perfbench/README.md`` for what each means on each workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import harness

#: Workload name -> the module that sets it up and measures it.
WORKLOADS = {
    "sim-issuebound": "sim_cells",
    "sim-membound": "sim_cells",
    "sweep-exec": "sweep_exec",
    "serve-mix": "serve_mix",
}

#: Set-ups per run; ``setup_s`` is their median and the last one is the
#: one measured on.
SETUP_REPEATS = 9

#: The two calibration readings of a run may differ by this much before
#: the run is flagged ``noisy``.
CALIBRATION_TOLERANCE = 0.10

SMOKE_SECONDS = 1.0


@dataclass
class Context:
    """What a workload module is given: the run's inputs, its temp root,
    the tracer and the ledger of operations."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    tmp: Path
    tracer: harness.Tracer
    ledger: harness.Ledger = field(default_factory=harness.Ledger)
    notes: List[str] = field(default_factory=list)

    def note(self, line: str) -> None:
        self.notes.append(line)

    def few(self, count: int) -> int:
        """``count`` repetitions, or one when the run is a smoke run."""
        return 1 if self.smoke else count


def load_declaration() -> Dict[str, Any]:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> Dict[str, Any]:
    """One run of one workload; returns its full record."""
    declaration = load_declaration()
    module = importlib.import_module(WORKLOADS[workload])
    with harness.temp_root() as tmp:
        ctx = Context(workload, seed, seconds, trace, smoke, tmp,
                      harness.Tracer(trace))
        calib_start = harness.spin_kloops_per_s()
        setups: List[float] = []
        state = None
        values: Dict[str, float] = {}
        try:
            for _ in range(ctx.few(SETUP_REPEATS)):
                if state is not None:
                    module.teardown(ctx, state)
                    state = None
                with ctx.tracer.span("setup"):
                    t0 = time.perf_counter()
                    state = module.setup(ctx)
                    setups.append(time.perf_counter() - t0)
            with ctx.tracer.span("measure"):
                values = module.measure(ctx, state)
        finally:
            try:
                if state is not None:
                    module.teardown(ctx, state)
            finally:
                # Before the temp root goes and before this process
                # ends: nothing this run started is still running.
                killed = harness.reap_descendants()
        ctx.ledger.check(killed == 0,
                         f"{killed} process(es) outlived the run and "
                         "were killed")
        calib_end = harness.spin_kloops_per_s()

    values["setup_s"] = harness.median(setups)
    values["peak_rss_mb"] = harness.peak_rss_mb()
    values["fail_ratio"] = ctx.ledger.failed / max(1, ctx.ledger.attempted)
    values["host.nproc"] = harness.NPROC
    values["host.calib_start_kloops_per_s"] = calib_start
    values["host.calib_end_kloops_per_s"] = calib_end
    noisy = (abs(calib_end - calib_start) / max(calib_start, calib_end)
             > CALIBRATION_TOLERANCE)

    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m for m in declaration["end_to_end"]
                + declaration["per_layer"]}
    undeclared = sorted(set(values) - set(declared))
    ctx.ledger.check(not undeclared,
                     f"metrics not declared in BENCHMARK.json: {undeclared}")
    metrics = {}
    for metric in declaration[kind]:
        name = metric["name"]
        if kind == "end_to_end" and name not in values:
            ctx.ledger.fail(f"end-to-end metric {name} was not measured")
            continue
        # A layer this workload does not exercise reads 0.
        metrics[name] = {"value": values.get(name, 0.0),
                         "unit": metric["unit"]}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "noisy": noisy,
        "result": {
            "correct": ctx.ledger.failed == 0,
            "attempted": ctx.ledger.attempted,
            "failed": ctx.ledger.failed,
            "metrics": metrics,
        },
        "values": {name: values[name] for name in sorted(values)},
        "problems": ctx.ledger.problems,
        "notes": ctx.notes,
        "spans": ctx.tracer.spans,
        "self_time_s": ctx.tracer.self_times(),
    }


def print_record(record: Dict[str, Any]) -> None:
    result = record["result"]
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  "
          f"{'traced' if record['trace'] else 'untraced'}"
          f"{'  noisy: true' if record['noisy'] else ''}")
    for line in record["notes"]:
        print(f"   {line}")
    for name, entry in result["metrics"].items():
        # The table leaves out layers this workload does not exercise;
        # the result line carries them as 0.
        if name in record["values"]:
            print(f"   {name:34s} {entry['value']:14.6g} {entry['unit']}")
    for problem in record["problems"]:
        print(f"   FAILED: {problem}")
    print(f"   operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(json.dumps(result))


def append_record(path: Path, record: Dict[str, Any]) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run's record to a JSON list")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at reduced size (seconds)")
    args = parser.parse_args(argv)

    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {harness.SRC}/repro is "
              "missing", file=sys.stderr)
        return 2
    # Before anything is started: a process orphaned by one of this
    # run's children is handed to this process, which waits for it.
    harness.adopt_orphans()
    # Before the workload modules import the program; spawned workers
    # and child processes get the same path through child_env().
    sys.path.insert(0, str(harness.SRC))
    os.environ["PYTHONPATH"] = harness.child_env(harness.ROOT)["PYTHONPATH"]

    seconds = args.seconds
    if seconds is None:
        seconds = (SMOKE_SECONDS if args.smoke
                   else float(load_declaration()["run_seconds"]))
    trace = bool(args.trace or args.traced)
    status = 0
    for workload in ([args.workload] if args.workload else WORKLOADS):
        record = run_workload(workload, args.seed, seconds, trace,
                              args.smoke)
        print_record(record)
        if args.out is not None:
            append_record(args.out, record)
        if not record["result"]["correct"]:
            status = 1
    return status


# Spawned pool workers and fleet backends re-import this file; only the
# process the user started may run the harness.
if __name__ == "__main__":
    sys.exit(main())
