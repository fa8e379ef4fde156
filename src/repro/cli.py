"""Command-line interface: ``python -m repro <command>``.

:func:`build_parser` declares every command — its one-line summary
(``repro --help``) and its flags (``repro <command> --help``) — and
``cmd_<command>`` runs it; docs/ describes each in depth.  The ``serve``
and ``fleet`` knobs are not written here: :func:`_add_flags` generates
them from the fields of :class:`~repro.config.ServeConfig` and
:class:`~repro.config.RouterConfig`, their one declaration.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import pathlib
import sys
from typing import Iterator, List, Optional, Sequence

# Leaves only: a command imports what it runs inside its handler, so
# `repro request` never loads the simulator (docs/architecture.md).
from repro.config import (
    ALLOC_POLICIES,
    Endpoint,
    RouterConfig,
    SchedulerKind,
    ServeConfig,
    fermi_config,
    small_config,
)
from repro.errors import (
    BadRequestError,
    CellError,
    ConfigError,
    IncompleteRunError,
    RequestError,
    SimulationHangError,
    hang_snapshot,
)
from repro.exec import DEFAULT_CACHE_DIR
from repro.prefetch.factory import ENGINE_CHOICES, PREFETCHERS
from repro.workloads.base import Scale

#: Process exit codes for scripted callers (CI, Makefiles).
EXIT_OK = 0
EXIT_FAIL = 1          # validation checks failed / generic cell error
EXIT_CONFIG = 2        # invalid configuration (ConfigError)
EXIT_HANG = 3          # a simulation hung or hit its cycle limit
EXIT_SWEEP_FAILED = 4  # a resilient sweep finished with failed cells
EXIT_UNAVAILABLE = 5   # server unreachable / overloaded / draining

SCALES = {s.value: s for s in Scale}


def _config(name: str):
    if name == "fermi":
        return fermi_config()
    if name == "small":
        return small_config()
    raise argparse.ArgumentTypeError(f"unknown config preset {name!r}")


_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
_DURATION_SUFFIXES = {"s": 1, "m": 60, "h": 3600, "d": 86400}


def _suffixed(text: str, suffixes: dict, what: str, examples: str) -> float:
    """Parse a non-negative number with an optional one-letter unit."""
    raw = text.strip()
    factor = 1
    if raw and raw[-1].lower() in suffixes:
        factor = suffixes[raw[-1].lower()]
        raw = raw[:-1]
    try:
        value = float(raw) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {what} {text!r} (use e.g. {examples})") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"{what} must be >= 0 (got {text!r})")
    return value


def _size(text: str) -> int:
    """Parse a byte size: plain int or K/M/G-suffixed (``500M``)."""
    return int(_suffixed(text, _SIZE_SUFFIXES, "size", "1048576, 500M, 2G"))


def _size_text(size: int) -> str:
    """``size`` in the largest unit :func:`_size` reads back exactly."""
    unit = max((u for u, f in _SIZE_SUFFIXES.items() if size % f == 0),
               key=_SIZE_SUFFIXES.get, default="")
    return f"{size // _SIZE_SUFFIXES.get(unit, 1)}{unit.upper()}"


def _duration(text: str) -> float:
    """Parse a duration: plain seconds or s/m/h/d-suffixed (``7d``)."""
    return _suffixed(text, _DURATION_SUFFIXES, "duration",
                     "90, 30s, 12h, 7d")


def _override(text: str):
    """Parse one ``--override dotted.field=value`` into (path, value)."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"override {text!r} must look like field=value or "
            "section.field=value")
    path, _, raw = text.partition("=")
    parts = [p for p in path.strip().split(".") if p]
    if not parts:
        raise argparse.ArgumentTypeError(f"override {text!r} names no field")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings (e.g. scheduler names) pass through
    return parts, value


def _overrides_dict(pairs) -> dict:
    """Fold parsed ``--override`` pairs into the nested wire dict."""
    out: dict = {}
    for parts, value in pairs or ():
        node = out
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise SystemExit(
                    f"--override path {'.'.join(parts)} conflicts with an "
                    "earlier scalar override")
        node[parts[-1]] = value
    return out


def _names(text: str) -> List[str]:
    """Split a comma-separated CLI list, dropping blanks."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _cell(name: str) -> str:
    """Canonical cell name for a CLI argument: one benchmark or an
    ``A+B`` co-run, aliases accepted (what :func:`make_key` stores)."""
    from repro.workloads import normalize_benchmark

    try:
        return normalize_benchmark(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def _engine_name(name: str) -> str:
    if name not in ENGINE_CHOICES:
        raise argparse.ArgumentTypeError(
            f"unknown engine {name!r}; choose from {ENGINE_CHOICES}")
    return name


def _list_of(item):
    """argparse type: a comma-separated list, every entry through
    ``item`` (so one bad name is a usage error, not a stack trace)."""
    return lambda text: [item(name) for name in _names(text)]


def _scheduler(name: str) -> SchedulerKind:
    try:
        return SchedulerKind(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown scheduler {name!r}; choose from "
            f"{[k.value for k in SchedulerKind]}"
        ) from None


def _add_flags(parser: argparse.ArgumentParser, cls) -> None:
    """Add the flag of every field config dataclass ``cls`` declares
    itself (not inherited) with ``help`` metadata: the field is the
    flag's one declaration — dest, type, default and ``--help`` text."""
    own = vars(cls)["__annotations__"]
    for spec in dataclasses.fields(cls):
        if spec.name not in own or "help" not in spec.metadata:
            continue
        kwargs = dict(spec.metadata, dest=spec.name)
        flag = kwargs.pop("flag", "--" + spec.name.replace("_", "-"))
        if kwargs.get("metavar") == "SIZE":
            kwargs.update(type=_size, default=_size_text(spec.default))
        else:
            kwargs.setdefault("type", type(spec.default))
            kwargs["default"] = spec.default
        parser.add_argument(flag, **kwargs)


def config_from_args(cls, args: argparse.Namespace):
    """The ``cls`` instance the parsed flags describe: every flag field
    (see :func:`_add_flags`) from ``args``, the rest at their defaults."""
    return cls(**{spec.name: getattr(args, spec.name)
                  for spec in dataclasses.fields(cls)
                  if "help" in spec.metadata})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="CAPS reproduction (Koo et al., IPDPS 2018)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # Execution-engine flags shared by every simulating command.
    ex = argparse.ArgumentParser(add_help=False)
    ex.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the simulation matrix "
                         "(default: 1, serial)")
    ex.add_argument("--cache", type=pathlib.Path, nargs="?",
                    const=pathlib.Path(DEFAULT_CACHE_DIR), default=None,
                    metavar="DIR",
                    help="persist results to an on-disk cache "
                         f"(default dir: {DEFAULT_CACHE_DIR})")
    ex.add_argument("--events-log", type=pathlib.Path, default=None,
                    metavar="FILE",
                    help="append telemetry events to this JSONL file")
    ex.add_argument("--hang-cycles", type=int, default=None, metavar="N",
                    help="watchdog: declare a hang after N cycles with "
                         "no forward progress (0 disables; default from "
                         "the config preset)")
    ex.add_argument("--deep-checks", action="store_true",
                    help="run the per-cycle invariant audit (slow; "
                         "debugging aid)")

    sub.add_parser("list", help="show workloads and engines")

    run = sub.add_parser("run", help="simulate one benchmark",
                         parents=[ex])
    run.add_argument("bench", type=_cell,
                     help="benchmark abbreviation, or A+B to co-schedule "
                          "kernels on one GPU (adds per-kernel cycles and "
                          "ANTT/STP against solo runs)")
    run.add_argument("--alloc-policy", choices=ALLOC_POLICIES,
                     default=None,
                     help="inter-kernel CTA allocation policy of an A+B "
                          "co-run: spatial (fixed SM partition), "
                          "leftover (fill idle slots), preempt "
                          "(CTA-boundary preemptive SRTF; default: "
                          "the config preset's policy)")
    run.add_argument("--engine", choices=ENGINE_CHOICES, default="caps")
    run.add_argument("--scale", choices=sorted(SCALES), default="small")
    run.add_argument("--config", type=_config, default="small")
    run.add_argument("--scheduler", type=_scheduler, default=None)
    run.add_argument("--metrics-out", type=pathlib.Path, default=None,
                     metavar="FILE",
                     help="export windowed metric series (per-SM IPC, "
                          "stall breakdown, queue depths, prefetch "
                          "events) to FILE; format by suffix: "
                          ".json/.jsonl/.csv")
    run.add_argument("--metrics-window", type=int, default=None, metavar="N",
                     help="sampling window in cycles for --metrics-out "
                          "(default: 512)")
    run.add_argument("--profile", action="store_true",
                     help="time simulator phases (host wall clock) and "
                          "print the breakdown")

    sweep = sub.add_parser("sweep", help="run a benchmark x engine matrix",
                           parents=[ex])
    sweep.add_argument("--benchmarks", type=_list_of(_cell), default=None,
                       help="comma-separated benchmark list (default: all 16)")
    sweep.add_argument("--engines", type=_list_of(_engine_name),
                       default=",".join(PREFETCHERS),
                       help="comma-separated engine list")
    sweep.add_argument("--scale", choices=sorted(SCALES), default="small")
    sweep.add_argument("--config", type=_config, default="small")

    # What `figures` renders and `validate` grades: one experiment plan.
    plan = argparse.ArgumentParser(add_help=False)
    plan.add_argument("--scale", choices=sorted(SCALES), default="small")
    plan.add_argument("--benchmarks", type=_list_of(_cell), default=None,
                      help="comma-separated subset; Figure 11 then runs on "
                           "its first two names (default: all 16 - 417 "
                           "cells, about 3 CPU-minutes at --scale small)")
    plan.add_argument("--full-scale", action="store_true",
                      help="also run the Figure 10 matrix on the Table III "
                           "machine at FULL scale (128 cells, about 5 "
                           "CPU-minutes)")

    figs = sub.add_parser("figures", help="regenerate paper figures",
                          parents=[ex, plan])
    figs.add_argument("--out", type=pathlib.Path, default=pathlib.Path("results"))

    sub.add_parser(
        "validate",
        help="grade every claim of the paper (the regression gate)",
        parents=[ex, plan],
    )

    tl = sub.add_parser(
        "timeline",
        help="render a sparkline execution timeline (burstiness view)",
    )
    tl.add_argument("bench", type=_cell,
                    help="benchmark abbreviation or A+B co-run")
    tl.add_argument("--engine", choices=ENGINE_CHOICES, default="none")
    tl.add_argument("--scale", choices=sorted(SCALES), default="small")
    tl.add_argument("--interval", type=int, default=150)
    tl.add_argument("--width", type=int, default=72)

    tr = sub.add_parser(
        "trace",
        help="export a Chrome trace-event / Perfetto timeline of one run",
    )
    tr.add_argument("bench", type=_cell,
                    help="benchmark abbreviation or A+B co-run")
    tr.add_argument("--engine", choices=ENGINE_CHOICES, default="caps")
    tr.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    tr.add_argument("--out", type=pathlib.Path, default=None, metavar="FILE",
                    help="output path (default: <bench>-<engine>.trace.json)")
    tr.add_argument("--limit", type=int, default=100_000, metavar="N",
                    help="cap on recorded events (default: 100000); "
                         "overflow is counted, not silently dropped")

    # Shared endpoint flags for the serving pair.
    ep = argparse.ArgumentParser(add_help=False)
    _add_flags(ep, Endpoint)

    # What one backend runs on: `serve` is one, `fleet` spawns several.
    be = argparse.ArgumentParser(add_help=False)
    be.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes per backend for dispatched "
                         "batches (default: 1, in-thread)")
    be.add_argument("--cache", type=pathlib.Path,
                    default=pathlib.Path(DEFAULT_CACHE_DIR), metavar="DIR",
                    help="persistent result-cache directory; a fleet's "
                         "backends share it and its router reads it as "
                         "the degraded fallback "
                         f"(default: {DEFAULT_CACHE_DIR})")
    be.add_argument("--no-disk-cache", action="store_true",
                    help="serve from the in-memory tiers only (a fleet "
                         "then has no degraded disk fallback either)")

    srv = sub.add_parser(
        "serve",
        help="run the long-lived simulation service (see docs/serving.md)",
        parents=[ep, be],
    )
    srv.add_argument("--events-log", type=pathlib.Path, default=None,
                     metavar="FILE",
                     help="append engine telemetry events to this JSONL "
                          "file (flushed per event; survives SIGKILL)")
    _add_flags(srv, ServeConfig)

    rq = sub.add_parser(
        "request",
        help="issue one request to a running simulation server",
        parents=[ep],
    )
    rq.add_argument("bench", type=str.upper, nargs="?", default=None,
                    help="benchmark to simulate (omit with --stats/--ping); "
                         "validated server-side against the workload suite")
    rq.add_argument("--engine", choices=ENGINE_CHOICES, default="caps")
    rq.add_argument("--scale", choices=sorted(SCALES), default="small")
    rq.add_argument("--preset", choices=("small", "fermi", "test"),
                    default="small",
                    help="server-side GPUConfig preset (default: small)")
    rq.add_argument("--override", type=_override, action="append",
                    default=None, metavar="FIELD=VALUE",
                    help="GPUConfig override, dotted for nested fields "
                         "(e.g. --override prefetch.nlp_degree=2); "
                         "repeatable")
    rq.add_argument("--scheduler", type=_scheduler, default=None,
                    help="warp scheduler (default: the engine's pairing)")
    rq.add_argument("--priority", choices=("interactive", "sweep"),
                    default="interactive")
    rq.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="per-request deadline enforced by the server")
    rq.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                    help="client-side bound on the whole request, "
                         "retries included (exit 5 when it expires)")
    rq.add_argument("--retries", type=int, default=3, metavar="N",
                    help="total attempts for transient failures "
                         "(connection refused/reset, overloaded, "
                         "degraded, deadline); backoff between "
                         "attempts, exit 5 only after the last one "
                         "(default: 3; 1 disables retries)")
    rq.add_argument("--json", action="store_true",
                    help="print the raw response payload as JSON")
    rq.add_argument("--stats", action="store_true",
                    help="fetch the server's introspection snapshot "
                         "(versioned payload, stats_schema v5: counters "
                         "plus memcache/tiers blocks, or the router's "
                         "fleet/backends payload; see docs/serving.md "
                         "and docs/fleet.md)")
    rq.add_argument("--ping", action="store_true",
                    help="liveness probe")

    fl = sub.add_parser(
        "fleet",
        help="run the fault-tolerant multi-backend serve fleet "
             "(see docs/fleet.md)",
        parents=[ep, be],
    )
    fl.add_argument("--backends", type=int, default=3, metavar="N",
                    help="supervised backend processes (default: 3)")
    fl.add_argument("--runtime-dir", type=pathlib.Path, default=None,
                    metavar="DIR",
                    help="directory for backend Unix sockets (default: "
                         "a fresh temporary directory)")
    fl.add_argument("--restart-budget", type=int, default=None, metavar="N",
                    help="restarts per backend before the supervisor "
                         "gives up on it (default: 3)")
    _add_flags(fl, RouterConfig)
    chaos = fl.add_argument_group(
        "chaos", "seeded serve-tier fault injection (tests/CI only)")
    chaos.add_argument("--chaos-seed", type=int, default=0,
                       help="fault-plan seed (default: 0)")
    chaos.add_argument("--chaos-kill-backend", type=int, default=-1,
                       metavar="INDEX",
                       help="backend index that exits mid-flight "
                            "(default: -1, none)")
    chaos.add_argument("--chaos-kill-after", type=int, default=0,
                       metavar="N",
                       help="simulate requests the doomed backend "
                            "answers before dying (default: 0)")
    chaos.add_argument("--chaos-slow-rate", type=float, default=0.0,
                       metavar="P", help="fraction of requests delayed")
    chaos.add_argument("--chaos-slow-s", type=float, default=0.05,
                       metavar="SECONDS", help="injected delay length")
    chaos.add_argument("--chaos-blackhole-rate", type=float, default=0.0,
                       metavar="P",
                       help="fraction of requests never answered")
    chaos.add_argument("--chaos-torn-rate", type=float, default=0.0,
                       metavar="P",
                       help="fraction of responses cut mid-line")

    ca = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the on-disk result cache",
    )
    ca.add_argument("action", choices=("stats", "gc"))
    ca.add_argument("--cache", type=pathlib.Path,
                    default=pathlib.Path(DEFAULT_CACHE_DIR), metavar="DIR",
                    help=f"cache directory (default: {DEFAULT_CACHE_DIR})")
    ca.add_argument("--max-bytes", type=_size, default=None, metavar="SIZE",
                    help="gc: evict oldest entries until the cache fits "
                         "this budget (accepts K/M/G suffixes)")
    ca.add_argument("--older-than", type=_duration, default=None,
                    metavar="DURATION",
                    help="gc: evict entries older than this (accepts "
                         "s/m/h/d suffixes, e.g. 7d)")
    ca.add_argument("--json", action="store_true",
                    help="print machine-readable JSON")
    return p


def _guarded_config(args):
    """Apply the shared --hang-cycles/--deep-checks flags to a config."""
    cfg = getattr(args, "config", None)
    if cfg is None:
        cfg = small_config()
    overrides = {}
    if getattr(args, "hang_cycles", None) is not None:
        overrides["hang_cycles"] = args.hang_cycles
    if getattr(args, "deep_checks", False):
        overrides["deep_checks"] = True
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def cmd_list(_args) -> int:
    from repro.analysis import format_table
    from repro.workloads import WORKLOADS

    rows = [
        (s.abbr, s.full_name, s.suite,
         "irregular" if s.irregular else "regular")
        for s in WORKLOADS.values()
    ]
    print(format_table(["abbr", "name", "suite", "class"], rows,
                       title="Workloads (paper Table IV)"))
    print(f"\nengines: none {' '.join(PREFETCHERS)}")
    print(f"schedulers: {' '.join(k.value for k in SchedulerKind)}")
    return 0


def _print_corun(args, cfg, co) -> None:
    """The co-run rows of ``repro run A+B``: each kernel's co-run and
    solo cycles (same engine and config) and slowdown, then the
    ANTT/STP interference metrics — see docs/metrics-glossary.md."""
    from repro.analysis import format_table, run_benchmark
    from repro.sim.multi import antt_stp

    solos = [run_benchmark(b, args.engine, config=cfg,
                           scale=SCALES[args.scale], scheduler=args.scheduler)
             for b in args.bench.split("+")]
    kernels = co.extra["kernels"]
    t = antt_stp([k["finish_cycle"] for k in kernels],
                 [s.cycles for s in solos])
    rows = [
        (rec["name"], rec["finish_cycle"], solo.cycles,
         f"{rec['finish_cycle'] / solo.cycles:.3f}x")
        for rec, solo in zip(kernels, solos)
    ]
    policy = cfg.multi.alloc_policy
    print()
    print(format_table(
        ["kernel", "co-run cycles", "solo cycles", "slowdown"], rows,
        title=f"{args.bench} @ {args.scale} via {args.engine} [{policy}]",
    ))
    print(f"\ntotal cycles {co.cycles}  "
          f"ANTT {t['antt']:.3f}  STP {t['stp']:.3f}  (policy: {policy})")


def cmd_run(args) -> int:
    cfg = _guarded_config(args)
    corun = "+" in args.bench
    if args.alloc_policy is not None:
        if not corun:
            raise ConfigError(
                "--alloc-policy only acts on an A+B co-run; "
                f"{args.bench} is one kernel")
        cfg = cfg.with_multi(alloc_policy=args.alloc_policy)
    from repro.analysis import format_percent, format_table, run_benchmark
    from repro.obs import format_profile, write_metrics

    want_metrics = (args.metrics_out is not None
                    or args.metrics_window is not None)
    if want_metrics or args.profile:
        obs_overrides = {"metrics": want_metrics, "profile": args.profile}
        if args.metrics_window is not None:
            obs_overrides["window"] = args.metrics_window
        cfg = cfg.with_obs(**obs_overrides)
    base = run_benchmark(args.bench, "none", config=cfg,
                         scale=SCALES[args.scale])
    r = run_benchmark(args.bench, args.engine, config=cfg,
                      scale=SCALES[args.scale], scheduler=args.scheduler)
    print(format_table(
        ["metric", "baseline", args.engine],
        [
            ("IPC", f"{base.ipc:.3f}", f"{r.ipc:.3f}"),
            ("speedup", "1.000x", f"{r.ipc / base.ipc:.3f}x"),
            ("cycles", base.cycles, r.cycles),
            ("L1 hit rate", format_percent(base.l1_hit_rate),
             format_percent(r.l1_hit_rate)),
            ("coverage", "-", format_percent(r.coverage())),
            ("accuracy", "-", format_percent(r.accuracy())),
            ("prefetches issued", 0, r.prefetch_stats.issued),
            ("DRAM reads", base.dram_reads, r.dram_reads),
        ],
        title=f"{args.bench} @ {args.scale}",
    ))
    if args.metrics_out is not None:
        ts = r.extra["timeseries"]
        fmt = write_metrics(ts, args.metrics_out)
        print(f"\nwrote {len(ts['samples'])} windows of "
              f"{ts['window']}-cycle metrics ({fmt}) to {args.metrics_out}")
    if args.profile:
        print(f"\nphase profile ({args.engine} run):")
        for line in format_profile(r.extra["profile"]):
            print(line)
    if corun:
        _print_corun(args, cfg, r)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from repro.analysis import format_table, geomean, run_sweep
    from repro.workloads import ALL_BENCHMARKS

    benches = args.benchmarks or list(ALL_BENCHMARKS)
    engines = [e for e in args.engines if e != "none"]
    scale = SCALES[args.scale]
    # One batched, resilient sweep: the engine deduplicates cells, runs
    # them in parallel under --jobs, caches each result as it finishes,
    # and records failures instead of aborting the batch.
    report = run_sweep(benches, ("none",) + tuple(engines),
                       config=_guarded_config(args), scale=scale)
    matrix = report.results
    rows: List = []
    speedups = {e: [] for e in engines}
    for b in benches:
        base = matrix.get((b, "none"))
        row: List = [b]
        for e in engines:
            r = matrix.get((b, e))
            if base is None or r is None or base.ipc <= 0:
                row.append("-")
            else:
                sp = r.ipc / base.ipc
                speedups[e].append(sp)
                row.append(sp)
        rows.append(tuple(row))
    rows.append(("geomean",
                 *[geomean(speedups[e]) if speedups[e] else "-"
                   for e in engines]))
    print(format_table(["bench"] + engines, rows,
                       title="Normalized IPC over the no-prefetch baseline"))
    if report.failures:
        print(f"\n{len(report.failures)} cell(s) FAILED:", file=sys.stderr)
        for (b, e), failure in sorted(report.failures.items()):
            print(f"  {b}/{e}: {failure.error!r} "
                  f"[{failure.kind.value}, {failure.attempts} attempt(s)]",
                  file=sys.stderr)
        for bundle in report.bundles:
            print(f"  diagnostic bundle: {bundle}", file=sys.stderr)
        print("  re-run with the same --cache to keep finished cells",
              file=sys.stderr)
        return EXIT_SWEEP_FAILED
    return EXIT_OK


def _plan_args(args) -> dict:
    """``experiment_plan`` arguments from the flags `figures` and
    `validate` share."""
    return dict(scale=SCALES[args.scale], benchmarks=args.benchmarks or None,
                config=_guarded_config(args),
                include_full_scale=args.full_scale)


def cmd_validate(args) -> int:
    from repro.analysis import format_table
    from repro.analysis.validate import (experiment_plan, reproduced,
                                         run_plan, scoreboard)

    rows = scoreboard(run_plan(experiment_plan(**_plan_args(args))))
    print(format_table(
        ["figure", "claim", "paper", "measured", "band", "status"],
        [(row.claim.figure,) + row.cells() for row in rows]))
    ok = reproduced(rows)
    print("\nshape:", "REPRODUCED" if ok else "BROKEN")
    return 0 if ok else 1


def _observed(args, **obs):
    """Simulate ``args.bench`` directly with the ``obs`` collectors on
    (past the result cache: their payloads are bulky and single-use)."""
    from repro.exec import execute_cell, make_key

    return execute_cell(make_key(
        args.bench, args.engine, scale=SCALES[args.scale],
        config=small_config().with_obs(**obs)))


def cmd_timeline(args) -> int:
    """Render one run's sampled metric series (window = ``--interval``)
    as sparklines; simulated directly, like :func:`cmd_trace`."""
    from repro.analysis import burstiness, render_timeline

    result = _observed(args, metrics=True, window=args.interval)
    series = result.extra["timeseries"]
    print(f"{args.bench} / {args.engine}: IPC {result.ipc:.3f}, "
          f"DRAM burstiness {burstiness(series):.2f}")
    print(render_timeline(series, width=args.width))
    return 0


def cmd_trace(args) -> int:
    """Run one benchmark with the trace recorder on and export the
    Chrome trace-event JSON."""
    from repro.obs import validate_chrome_trace

    result = _observed(args, trace=True, trace_limit=args.limit)
    trace = result.extra["trace"]
    problems = validate_chrome_trace(trace)
    if problems:  # pragma: no cover - schema guard
        print(f"internal error: malformed trace ({problems[0]})",
              file=sys.stderr)
        return EXIT_FAIL
    out = args.out or pathlib.Path(
        f"{args.bench.lower()}-{args.engine}.trace.json"
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    dropped = trace["metadata"]["dropped_events"]
    print(f"{args.bench} / {args.engine}: {result.cycles} cycles, "
          f"IPC {result.ipc:.3f}")
    print(f"wrote {len(trace['traceEvents'])} events to {out}"
          + (f" ({dropped} dropped over --limit)" if dropped else ""))
    print("open in https://ui.perfetto.dev or about://tracing")
    return EXIT_OK


def cmd_figures(args) -> int:
    from repro.analysis.experiments_md import generate_experiments_md

    with _path_flag("--out", args.out):
        args.out.mkdir(parents=True, exist_ok=True)
    path = generate_experiments_md(args.out / "EXPERIMENTS.md",
                                   **_plan_args(args))
    print(f"wrote {path}")
    return 0


def _serve_until_drained(command: str, endpoint: str, serve, announce):
    """Run ``serve(ready)`` — a server coroutine that sets ``ready`` once
    it listens — until it drains, and return what it returns (``None``
    on ^C); ``announce()`` is printed once ``ready`` is set.

    A server that dies before then (a rejected knob, a failed bind)
    raises here instead of leaving the command waiting on ``ready``
    forever; a failed bind exits with one line, not a traceback.
    """
    import asyncio

    async def run():
        ready = asyncio.Event()
        loop = asyncio.get_running_loop()
        task = loop.create_task(serve(ready))
        listening = loop.create_task(ready.wait())
        await asyncio.wait({task, listening},
                           return_when=asyncio.FIRST_COMPLETED)
        listening.cancel()
        if ready.is_set():
            print(announce(), file=sys.stderr, flush=True)
        return await task

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - ^C without handler
        return None
    except (OSError, OverflowError) as exc:  # OverflowError: port > 65535
        raise SystemExit(
            f"repro {command}: cannot listen on {endpoint}: {exc}") from None


def cmd_serve(args) -> int:
    """Run the simulation service until SIGTERM/SIGINT, then drain."""
    from repro.serve.server import run_server

    engine, sink = _engine(args.jobs,
                           None if args.no_disk_cache else args.cache,
                           args.events_log)
    config = config_from_args(ServeConfig, args)
    try:
        server = _serve_until_drained(
            "serve", config.endpoint,
            lambda ready: run_server(engine, config, ready=ready),
            lambda: (f"repro serve: listening on "
                     f"{config.socket_path or config.host}"
                     f"{'' if config.socket_path else ':%d' % config.port}"
                     f" (jobs={engine.jobs}, queue-limit="
                     f"{config.queue_limit}); SIGTERM drains"))
    finally:
        if sink is not None:
            sink.close()
    if server is None:
        return EXIT_OK
    stats = server.stats()
    print(f"repro serve: drained cleanly — "
          f"{stats['server']['requests']} request(s), "
          f"{stats['simulations']} simulation(s), "
          f"dedup ratio {stats['dedup_ratio']:.2f}, "
          f"memcache hit ratio {stats['memcache']['hit_ratio']:.2f}",
          file=sys.stderr)
    return EXIT_OK


def cmd_fleet(args) -> int:
    """Run the supervised multi-backend fleet until SIGTERM/SIGINT."""
    import tempfile

    from repro.guard.faults import FaultPlan
    from repro.serve.fleet import make_fleet, run_fleet

    if args.backends < 1:
        raise SystemExit("--backends must be >= 1")
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    # Built even when no fault is armed, so a bad --chaos-* value is a
    # configuration error rather than silently ignored.
    fault_plan = FaultPlan(
        seed=args.chaos_seed,
        kill_backend=args.chaos_kill_backend,
        kill_after_requests=args.chaos_kill_after,
        slow_request_rate=args.chaos_slow_rate,
        slow_request_s=args.chaos_slow_s,
        blackhole_rate=args.chaos_blackhole_rate,
        torn_response_rate=args.chaos_torn_rate,
    )
    if not fault_plan.affects_serving:
        fault_plan = None
    runtime_dir = (str(args.runtime_dir) if args.runtime_dir is not None
                   else tempfile.mkdtemp(prefix="repro-fleet-"))
    supervisor, router = make_fleet(
        args.backends, runtime_dir,
        router_config=config_from_args(RouterConfig, args),
        jobs=args.jobs,
        cache_dir=None if args.no_disk_cache else str(args.cache),
        fault_plan=fault_plan,
        restart_budget=args.restart_budget,
    )
    if fault_plan is not None:
        print(f"repro fleet: CHAOS armed ({fault_plan})", file=sys.stderr)
    endpoint = router.config.endpoint
    if _serve_until_drained(
            "fleet", endpoint,
            lambda ready: run_fleet(supervisor, router, ready=ready),
            lambda: (f"repro fleet: {args.backends} backend(s) behind "
                     f"{endpoint} (runtime: {runtime_dir}); "
                     "SIGTERM drains")) is None:
        return EXIT_OK
    stats = router.stats()
    restarts = sum(entry["restarts"]
                   for entry in stats["supervisor"]["backends"].values())
    print(f"repro fleet: drained cleanly — "
          f"{stats['router']['requests']} request(s), "
          f"{stats['router']['routed']} routed, "
          f"{stats['router']['failovers']} failover(s), "
          f"{restarts} restart(s)",
          file=sys.stderr)
    return EXIT_OK


def cmd_request(args) -> int:
    """Issue one request (simulate / stats / ping) to a running server."""
    from repro.serve.client import ServeClient
    from repro.serve.retry import RetryPolicy

    if not (args.stats or args.ping) and args.bench is None:
        raise SystemExit(
            "repro request: name a benchmark, or pass --stats / --ping")
    if args.retries < 1:
        raise SystemExit("--retries must be >= 1")
    client = ServeClient(
        **dataclasses.asdict(config_from_args(Endpoint, args)),
        timeout=args.timeout,
        retry=(RetryPolicy(attempts=args.retries)
               if args.retries > 1 else None),
    )
    try:
        with client:
            if args.ping:
                client.ping()
                print("pong")
                return EXIT_OK
            if args.stats:
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return EXIT_OK
            result, meta = client.simulate(
                args.bench,
                engine=args.engine,
                scale=args.scale,
                preset=args.preset,
                overrides=_overrides_dict(args.override),
                scheduler=args.scheduler.value if args.scheduler else None,
                priority=args.priority,
                deadline_s=args.deadline,
            )
    except BadRequestError as exc:
        print(f"request error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RequestError as exc:
        print(f"request error [{exc.code}]: {exc}", file=sys.stderr)
        return (EXIT_UNAVAILABLE
                if exc.code in ("overloaded", "deadline_exceeded",
                                "shutting_down", "degraded")
                else EXIT_FAIL)
    except (ConnectionError, OSError) as exc:
        print(f"cannot reach server: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    if args.json:
        from repro.result import serialize_result

        print(json.dumps({"result": serialize_result(result), "meta": meta},
                         indent=2, sort_keys=True))
        return EXIT_OK
    from repro.analysis import format_percent, format_table

    print(format_table(
        ["metric", "value"],
        [
            ("cell", meta.get("cell", "-")),
            ("source", meta.get("source", "-")),
            ("round trip", f"{meta.get('wall_s', 0.0):.3f}s"),
            ("IPC", f"{result.ipc:.3f}"),
            ("cycles", result.cycles),
            ("L1 hit rate", format_percent(result.l1_hit_rate)),
            ("prefetches issued", result.prefetch_stats.issued),
            ("DRAM reads", result.dram_reads),
        ],
        title=f"{args.bench} @ {args.scale} via {args.engine}",
    ))
    return EXIT_OK


def cmd_cache(args) -> int:
    """Inspect (``stats``) or garbage-collect (``gc``) the disk cache."""
    from repro.analysis import format_table
    from repro.exec import ResultCache

    cache = ResultCache(args.cache)
    if args.action == "stats":
        stats = cache.disk_stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(format_table(
                ["metric", "value"],
                [
                    ("root", stats["root"]),
                    ("schema", f"v{stats['schema']}"),
                    ("entries", stats["entries"]),
                    ("total bytes", stats["total_bytes"]),
                ],
                title="Result cache",
            ))
        return EXIT_OK
    if args.max_bytes is None and args.older_than is None:
        raise SystemExit(
            "repro cache gc: pass --max-bytes and/or --older-than")
    report = cache.gc(max_bytes=args.max_bytes, older_than_s=args.older_than)
    if args.json:
        print(json.dumps(dataclasses.asdict(report), indent=2,
                         sort_keys=True))
    else:
        print(f"evicted {report.removed} entr{'y' if report.removed == 1 else 'ies'} "
              f"({report.removed_bytes} bytes); "
              f"{report.kept} kept ({report.kept_bytes} bytes)")
    return EXIT_OK


@contextlib.contextmanager
def _path_flag(flag: str, path) -> Iterator[None]:
    """Turn an ``OSError`` while preparing ``flag``'s path into a
    one-line :class:`ConfigError`, raised before any cell runs."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"{flag} {path} is not usable: {exc}") from None


def _engine(jobs: int, cache_dir, events_log):
    """The execution engine the ``--jobs`` / ``--cache`` /
    ``--events-log`` flags describe, and its JSONL sink (or ``None``).

    Both paths are made usable here — the cache directory and the log's
    parent are created — so a bad one is a configuration error, not a
    traceback after the first cell has simulated."""
    from repro.exec import EventLog, ExecutionEngine, JSONLSink, ResultCache

    if jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    cache = sink = None
    if cache_dir is not None:
        with _path_flag("--cache", cache_dir):
            cache_dir.mkdir(parents=True, exist_ok=True)
        cache = ResultCache(cache_dir)
    events = EventLog()
    if events_log is not None:
        with _path_flag("--events-log", events_log):
            events_log.parent.mkdir(parents=True, exist_ok=True)
            sink = JSONLSink(events_log)
        events.subscribe(sink)
    return ExecutionEngine(jobs=jobs, cache=cache, events=events), sink


def _install_engine(args) -> None:
    """Configure the process-wide execution engine from CLI flags.

    With the default flags (serial, no persistence, no telemetry sink)
    the already-installed engine is kept, so repeated in-process CLI
    invocations share its memo.
    """
    jobs = getattr(args, "jobs", 1)
    cache_dir = getattr(args, "cache", None)
    events_log = getattr(args, "events_log", None)
    if jobs == 1 and cache_dir is None and events_log is None:
        return
    from repro.analysis import set_engine
    from repro.exec import TTYProgress

    engine, _ = _engine(jobs, cache_dir, events_log)
    if sys.stderr.isatty():
        engine.events.subscribe(TTYProgress())
    set_engine(engine)


def _report_hang(exc: BaseException) -> None:
    """Print a human-readable summary of a hang/incomplete-run error."""
    print(f"\nerror: {exc}", file=sys.stderr)
    snapshot = hang_snapshot(exc)
    if snapshot:
        from repro.guard.watchdog import format_snapshot

        print(format_snapshot(snapshot), file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command not in ("serve", "request", "cache", "fleet"):
            # The serving/maintenance commands manage their own engine
            # (or none); the shared flags mean different things there.
            _install_engine(args)
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationHangError, IncompleteRunError) as exc:
        _report_hang(exc)
        return EXIT_HANG
    except CellError as exc:
        # Fail-fast batch paths (run_plan under validate/figures) wrap
        # the worker's exception; unwrap so hangs still get a snapshot.
        cause = exc.cause
        if isinstance(cause, (SimulationHangError, IncompleteRunError)):
            _report_hang(cause)
            return EXIT_HANG
        print(f"\nerror: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
