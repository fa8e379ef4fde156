"""Experiment functions: one per paper table/figure.

Each function returns plain dicts/lists ready for tabulation;
``analysis/experiments_md.py`` renders them and ``analysis/validate.py``
grades the paper's claims on them.  Every figure that simulates has the
shape *cells → one batch → view* (:func:`_figure`): it names its runs as
``RunKey`` cells, the engine executes them as one batch (in parallel
with ``--jobs N``; figures sharing runs — 10/12/13/15 — simulate once),
and the figure computes from the returned results.  ``fig.cells(...)``
stops after the first step, which is how ``validate.run_plan`` simulates
every figure of a report or a scoreboard as a single batch.  Where a
Figure 14 ratio has no denominator (no prefetch issued, none consumed)
it is ``None``, not zero; Figure 12 carries the issued counts instead.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, List, Optional, Sequence,
                    Tuple, TypeVar)

from repro.config import ALLOC_POLICIES, GPUConfig, SchedulerKind, small_config
from repro.analysis.driver import (
    RunKey,
    make_key,
    matrix_cells,
    run_cells,
    speedups_over_baseline,
)
from repro.analysis.metrics import geomean, mean
from repro.energy.model import normalized_energy
from repro.prefetch import PREFETCHERS
from repro.result import SimResult
from repro.workloads import (
    ALL_BENCHMARKS,
    CORUN_PAIRS,
    IRREGULAR,
    REGULAR,
    CorunPair,
    Scale,
    build,
)

#: Figure 10/12/13 evaluation order.
ENGINES = PREFETCHERS

T = TypeVar("T")
#: Body of a simulating figure: yields its cells (label → ``RunKey``)
#: once, is sent their results (label → ``SimResult``), returns its data.
Steps = Generator[Dict[Any, RunKey], Dict[Any, SimResult], T]


def _figure(steps: Callable[..., Steps[T]]) -> Callable[..., T]:
    """Make the generator ``steps`` a figure function: its cells run as
    one engine batch and its ``return`` value is the figure's data.

    ``figure.cells(...)`` takes the same arguments and returns the cells
    alone, without simulating — each figure's cells are written down
    once, in its body, for both uses.
    """
    @functools.wraps(steps)
    def figure(*args, **kwargs):
        body = steps(*args, **kwargs)
        results = run_cells(next(body))
        try:
            body.send(results)
        except StopIteration as done:
            return done.value
        raise RuntimeError(f"{steps.__name__} yielded a second batch")

    figure.cells = lambda *args, **kwargs: next(steps(*args, **kwargs))
    return figure


# ---------------------------------------------------------------- Figure 1

@dataclass
class Fig1Point:
    distance: int
    accuracy: float
    mean_gap_cycles: float
    samples: int


def fig1_interwarp_accuracy(
    distances: Sequence[int] = tuple(range(1, 11)),
    *,
    benchmark: str = "MM",
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
) -> List[Fig1Point]:
    """Figure 1: simple inter-warp stride prediction accuracy and the
    cycle gap between load executions, by warp distance.

    Mirrors the paper's experiment: trace the load stream
    (:func:`repro.sim.trace.trace_kernel`), train a per-PC stride from
    loads of adjacent warp slots, then for each warp ``s`` predict the
    address of warp ``s+d`` as ``addr(s) + d·Δ`` and compare with what
    ``s+d`` actually issued.  MM has 8 warps per CTA, so accuracy
    collapses once ``d`` crosses the CTA boundary.
    """
    from repro.sim.trace import trace_kernel

    cfg = config if config is not None else small_config()
    trace = trace_kernel(build(benchmark, scale), cfg)
    # first execution per (sm, pc, warp slot)
    per_sm: Dict[int, Dict[int, Dict[int, Tuple[int, int]]]] = {}
    for r in trace.records:
        if r.iteration != 0 or r.indirect:
            continue
        slots = per_sm.setdefault(r.sm_id, {}).setdefault(r.pc, {})
        slots.setdefault(r.warp_slot, (r.address, r.cycle))
    points = []
    for d in distances:
        correct = total = 0
        gap_sum = 0
        for by_pc in per_sm.values():
            for slots in by_pc.values():
                stride = None
                for s in sorted(slots):
                    if s + 1 in slots:
                        stride = slots[s + 1][0] - slots[s][0]
                        break
                if stride is None:
                    continue
                for s in sorted(slots):
                    if s + d not in slots:
                        continue
                    predicted = slots[s][0] + d * stride
                    actual, cyc_t = slots[s + d]
                    total += 1
                    gap_sum += max(0, cyc_t - slots[s][1])
                    if predicted == actual:
                        correct += 1
        points.append(
            Fig1Point(
                distance=d,
                accuracy=correct / total if total else 0.0,
                mean_gap_cycles=gap_sum / total if total else 0.0,
                samples=total,
            )
        )
    return points


def sec1_nn_stalls(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
) -> Dict[str, float]:
    """Section I motivation: where nearest neighbor's cycles go (the
    paper: stalled with every warp waiting on L1 for most of them).

    The kernel (:func:`repro.workloads.extra.build_nn`) is outside the
    Table IV suite, so like Figure 1 it is simulated here rather than
    named as a cell.
    """
    from repro.sim.gpu import simulate
    from repro.workloads.extra import build_nn

    r = simulate(build_nn(scale),
                 config if config is not None else small_config())
    s = r.sm_stats
    return {
        "stall_all": r.stall_fraction(),
        "stall_partial": s.stall_mem_partial / s.active_cycles,
        "issuing": s.issue_cycles / s.active_cycles,
        "ipc": r.ipc,
        "completed": float(r.completed),
    }


# ---------------------------------------------------------------- Figure 4

@dataclass
class Fig4Row:
    benchmark: str
    looped_loads: int
    total_loads: int
    model_mean_iterations: float
    paper_mean_iterations: float


def fig4_loop_iterations() -> List[Fig4Row]:
    """Figure 4: mean dynamic executions per warp of the four most
    frequent loads, plus looped/total static load counts.

    Paper counts come from the published figure annotations; model
    counts are measured on our kernel programs.
    """
    from repro.workloads import WORKLOADS

    rows = []
    for abbr, spec in WORKLOADS.items():
        kernel = spec.build(Scale.TINY)
        execs = sorted(kernel.program.site_executions(), reverse=True)[:4]
        model_mean = mean(execs) if execs else 0.0
        rows.append(
            Fig4Row(
                benchmark=abbr,
                looped_loads=spec.fig4.looped_loads,
                total_loads=spec.fig4.total_loads,
                model_mean_iterations=model_mean,
                paper_mean_iterations=spec.fig4.paper_mean_iterations,
            )
        )
    return rows


# --------------------------------------------------------------- Figure 10

@_figure
def fig10_normalized_ipc(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Steps[Dict[str, Dict[str, float]]]:
    """Figure 10: IPC of every engine normalized to the no-prefetch
    two-level baseline, plus Mean(reg)/Mean(irreg)/Mean(all) rows."""
    matrix = yield matrix_cells(benchmarks, ("none",) + tuple(engines),
                                config=config, scale=scale)
    sp = speedups_over_baseline(matrix, benchmarks, tuple(engines))
    out: Dict[str, Dict[str, float]] = {
        b: {e: sp[(b, e)] for e in engines} for b in benchmarks
    }
    reg = [b for b in benchmarks if b in REGULAR]
    irreg = [b for b in benchmarks if b in IRREGULAR]
    for label, group in (("Mean(reg)", reg), ("Mean(irreg)", irreg),
                         ("Mean(all)", list(benchmarks))):
        if group:
            out[label] = {
                e: geomean([sp[(b, e)] for b in group]) for e in engines
            }
    return out


# --------------------------------------------------------------- Figure 11

@_figure
def fig11_cta_sweep(
    cta_limits: Sequence[int] = (1, 2, 4, 8),
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Steps[Dict[int, Dict[str, float]]]:
    """Figure 11: mean IPC by concurrent-CTA limit, all normalized to
    the no-prefetch baseline at the maximum CTA count."""
    cfg = config if config is not None else small_config()
    engines = ("none",) + tuple(engines)
    r = yield {
        (limit, e, b): make_key(b, e, config=cfg.with_cta_limit(limit),
                                scale=scale)
        for limit in cta_limits for e in engines for b in benchmarks
    }
    ref_limit = max(cta_limits)
    return {
        limit: {
            e: geomean([r[limit, e, b].ipc / r[ref_limit, "none", b].ipc
                        for b in benchmarks])
            for e in engines
        }
        for limit in cta_limits
    }


# --------------------------------------------------------------- Figure 12

def _mean_pairs(out, benchmarks, engines) -> Dict[str, Tuple[float, float]]:
    """The ``Mean`` row of Figures 12 and 13: per engine, the mean over
    ``benchmarks`` of each half of its value pairs."""
    return {
        e: (
            mean([out[b][e][0] for b in benchmarks]),
            mean([out[b][e][1] for b in benchmarks]),
        )
        for e in engines
    }


@_figure
def fig12_coverage_accuracy(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Steps[Dict[str, Dict[str, Tuple[float, float]]]]:
    """Figure 12: per-engine (coverage, accuracy), plus a Mean row and
    an ``Issued`` row — prefetches issued over all benchmarks, so a
    reader can tell an accuracy of zero from nothing to measure."""
    r = yield matrix_cells(benchmarks, engines, config=config, scale=scale)
    out = {b: {e: (r[b, e].coverage(), r[b, e].accuracy()) for e in engines}
           for b in benchmarks}
    out["Mean"] = _mean_pairs(out, benchmarks, engines)
    out["Issued"] = {e: sum(r[b, e].prefetch_stats.issued for b in benchmarks)
                     for e in engines}
    return out


# --------------------------------------------------------------- Figure 13

@_figure
def fig13_bandwidth_overhead(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Steps[Dict[str, Dict[str, Tuple[float, float]]]]:
    """Figure 13: (core-request traffic, DRAM read traffic), each
    normalized to the no-prefetch baseline; plus a Mean row."""
    r = yield matrix_cells(benchmarks, ("none",) + tuple(engines),
                           config=config, scale=scale)
    out = {b: {e: (r[b, e].core_requests / max(1, r[b, "none"].core_requests),
                   r[b, e].dram_reads / max(1, r[b, "none"].dram_reads))
               for e in engines}
           for b in benchmarks}
    out["Mean"] = _mean_pairs(out, benchmarks, engines)
    return out


# --------------------------------------------------------------- Figure 14
#
# Both Figure 14 metrics are event-stream properties (prefetch issue,
# fill, consume, evict), so they are computed from the repro.obs windowed
# time series rather than end-of-run counters: the runs carry
# ``extra["timeseries"]`` and the ratios/means come from its totals.
# Hooks fire at the exact PrefetchStats call sites, so the values agree
# with the legacy counters to the last integer (tests/obs golden test).

@_figure
def fig14a_early_prefetch_ratio(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
) -> Steps[Dict[str, Optional[float]]]:
    """Figure 14a: mean early-prefetch (evicted-before-use) ratio for
    INTRA / INTER / MTA / CAPS / CAPS without eager wake-up, derived
    from the :mod:`repro.obs` time-series totals (``None`` for an
    engine that issued nothing)."""
    cfg = config if config is not None else small_config()
    cfg = cfg.with_obs(metrics=True)
    nowake = dataclasses.replace(
        cfg, prefetch=dataclasses.replace(cfg.prefetch, eager_wakeup=False)
    )
    variants = {"intra": ("intra", cfg), "inter": ("inter", cfg),
                "mta": ("mta", cfg), "caps": ("caps", cfg),
                "caps_no_wakeup": ("caps", nowake)}
    r = yield {
        (label, b): make_key(b, engine, config=c, scale=scale)
        for label, (engine, c) in variants.items() for b in benchmarks
    }
    out: Dict[str, Optional[float]] = {}
    for label in variants:
        totals = [r[label, b].extra["timeseries"]["totals"]
                  for b in benchmarks]
        issued = sum(t["pf_issued"] for t in totals)
        # Aggregate over all prefetches (issued-weighted), matching the
        # paper's single MEAN bar.
        out[label] = (sum(t["pf_early_evicted"] for t in totals) / issued
                      if issued else None)
    return out


@_figure
def fig14b_prefetch_distance(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
) -> Steps[Dict[str, Optional[float]]]:
    """Figure 14b: mean prefetch->demand distance of timely CAPS
    prefetches under LRR, the plain two-level scheduler (TLV), and the
    prefetch-aware two-level scheduler (PA-TLV), derived from the
    :mod:`repro.obs` time-series totals (``None`` where no benchmark
    consumed a prefetch)."""
    from repro.obs import consumed_prefetches, mean_prefetch_lead

    cfg = config if config is not None else small_config()
    cfg = cfg.with_obs(metrics=True)
    kinds = {"LRR": SchedulerKind.LRR, "TLV": SchedulerKind.TWO_LEVEL,
             "PA-TLV": SchedulerKind.PAS}
    r = yield {
        (label, b): make_key(b, "caps", config=cfg, scale=scale,
                             scheduler=kind)
        for label, kind in kinds.items() for b in benchmarks
    }
    out: Dict[str, Optional[float]] = {}
    for label in kinds:
        series = [r[label, b].extra["timeseries"] for b in benchmarks]
        leads = [mean_prefetch_lead(ts) for ts in series
                 if consumed_prefetches(ts)]
        out[label] = mean(leads) if leads else None
    return out


# ------------------------------------------------- Co-run interference

@_figure
def fig_corun_interference(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    pairs: Sequence[CorunPair] = CORUN_PAIRS,
    policies: Sequence[str] = ALLOC_POLICIES,
    engine: str = "none",
) -> Steps[Dict[str, Dict[str, Dict]]]:
    """Co-run interference study: per-kernel slowdown, ANTT and STP for
    every curated pair under every CTA allocation policy.

    Not a paper figure — it extends the reproduction to concurrent
    kernels (docs/architecture.md).  For each pair the two kernels also
    run solo (same engine/config, one cell shared by every policy and
    pair); ANTT is the mean per-kernel slowdown ``T_co / T_solo`` and
    STP the aggregate throughput ``Σ T_solo / T_co`` — see
    docs/metrics-glossary.md.
    """
    from repro.sim.multi import antt_stp

    cfg = config if config is not None else small_config()
    cells = {
        (pair.name, policy): make_key(
            pair.name, engine, config=cfg.with_multi(alloc_policy=policy),
            scale=scale)
        for pair in pairs for policy in policies
    }
    for pair in pairs:
        for b in pair.name.split("+"):
            cells[b] = make_key(b, engine, config=cfg, scale=scale)
    r = yield cells
    out: Dict[str, Dict[str, Dict]] = {}
    for pair in pairs:
        per_policy: Dict[str, Dict] = {}
        for policy in policies:
            co = r[pair.name, policy]
            kernels = co.extra["kernels"]
            solo = [r[k["name"]].cycles for k in kernels]
            t = antt_stp([k["finish_cycle"] for k in kernels], solo)
            per_policy[policy] = {
                "total_cycles": co.cycles,
                "antt": t["antt"],
                "stp": t["stp"],
                "slowdowns": {
                    k["name"]: k["finish_cycle"] / s
                    for k, s in zip(kernels, solo)
                },
                "kernels": kernels,
            }
        out[pair.name] = per_policy
    return out


# ------------------------------------- Ablations and sensitivity (ours)

#: Study groups beyond the paper's figures: the benchmarks each runs on
#: and its studies.  ``ablations`` sweeps the CAPS design choices
#: DESIGN.md calls out; ``sensitivity`` the axes of the paper's Section I
#: argument (L1 lines per warp shrink, so misses get burstier).
STUDIES = {
    "ablations": (("CNV", "BPR", "MM", "HSP", "KM"),
                  ("threshold", "tables", "window", "scheduler")),
    "sensitivity": (("BPR", "CNV", "LPS"), ("l1", "warps", "dram")),
}


def _variants(cfg: GPUConfig) -> Dict[str, Dict[Any, Tuple[GPUConfig, Any]]]:
    """study → label → (machine, CAPS's scheduler or ``None`` for PAS):
    every study is ``cfg`` with one thing varied."""
    def prefetch(**kw):
        return dataclasses.replace(
            cfg, prefetch=dataclasses.replace(cfg.prefetch, **kw)), None

    def machine(**kw):
        return dataclasses.replace(cfg, **kw), None

    return {
        "threshold": {n: prefetch(mispredict_threshold=n)
                      for n in (2, 4, 16, 64)},
        "tables": {n: prefetch(percta_entries=n, dist_entries=n)
                   for n in (1, 2, 4, 8)},
        "window": {n: prefetch(prefetch_window=n) for n in (2, 8, 16, 48)},
        "scheduler": {label: (cfg, kind) for label, kind in (
            ("LRR", SchedulerKind.LRR), ("PAS-LRR", SchedulerKind.PAS_LRR),
            ("GTO", SchedulerKind.GTO), ("PAS-GTO", SchedulerKind.PAS_GTO),
            ("two-level", SchedulerKind.TWO_LEVEL),
            ("PAS", SchedulerKind.PAS))},
        "l1": {f"{kb}KB": machine(l1d=dataclasses.replace(
                   cfg.l1d, size_bytes=kb * 1024)) for kb in (8, 16, 32, 64)},
        "warps": {n: machine(max_warps_per_sm=n) for n in (24, 48, 64)},
        "dram": {n: machine(dram=dataclasses.replace(cfg.dram, channels=n),
                            l2_partitions=4) for n in (1, 2, 4)},
    }


@_figure
def fig_caps_variants(
    group: str,
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
) -> Steps[Dict[str, Dict[Any, Dict[str, Any]]]]:
    """One :data:`STUDIES` group: per study and labelled variant, CAPS's
    speed-up over the two-level no-prefetch baseline on the same machine
    (per benchmark and geomean) and that baseline's geomean IPC."""
    cfg = config if config is not None else small_config()
    benchmarks, studies = STUDIES[group]
    variants = _variants(cfg)
    r = yield {
        (study, label, engine, b): make_key(
            b, engine, config=machine, scale=scale,
            scheduler=kind if engine == "caps" else None)
        for study in studies
        for label, (machine, kind) in variants[study].items()
        for engine in ("none", "caps") for b in benchmarks
    }
    out: Dict[str, Dict[Any, Dict[str, Any]]] = {}
    for study in studies:
        out[study] = {}
        for label in variants[study]:
            base = {b: r[study, label, "none", b].ipc for b in benchmarks}
            speedup = {b: r[study, label, "caps", b].ipc / base[b]
                       for b in benchmarks}
            out[study][label] = {
                "speedup": speedup,
                "geomean": geomean(list(speedup.values())),
                "base_ipc": geomean(list(base.values())),
            }
    return out


# --------------------------------------------------------------- Figure 15

@_figure
def fig15_energy(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
) -> Steps[Dict[str, float]]:
    """Figure 15: CAPS energy normalized to the baseline, per benchmark
    plus the mean."""
    cfg = config if config is not None else small_config()
    r = yield matrix_cells(benchmarks, ("none", "caps"), config=cfg,
                           scale=scale)
    out = {b: normalized_energy(r[b, "caps"], r[b, "none"], cfg.num_sms)
           for b in benchmarks}
    out["Mean"] = mean(list(out.values()))
    return out
