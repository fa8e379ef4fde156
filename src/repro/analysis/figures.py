"""Experiment functions: one per paper table/figure.

Each ``figN_data`` function runs the required simulations (through the
memoizing driver, so figures sharing runs — 10/12/13/15 — simulate once)
and returns plain dicts/lists ready for tabulation; the ``benchmarks/``
harness prints them next to the paper's reported values.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ALLOC_POLICIES, GPUConfig, SchedulerKind, small_config
from repro.analysis.driver import run_benchmark, run_matrix, speedups_over_baseline
from repro.analysis.metrics import geomean, mean
from repro.energy.model import normalized_energy
from repro.prefetch import PREFETCHERS
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
        sites = kernel.program.load_sites()
        cursor = kernel.program.cursor()
        while not cursor.done:
            cursor.next_instr()
        execs = sorted(
            (cursor.site_iteration(s) for s in sites), reverse=True
        )[:4]
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

def fig10_normalized_ipc(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Dict[str, Dict[str, float]]:
    """Figure 10: IPC of every engine normalized to the no-prefetch
    two-level baseline, plus Mean(reg)/Mean(irreg)/Mean(all) rows."""
    matrix = run_matrix(benchmarks, ("none",) + tuple(engines),
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

def fig11_cta_sweep(
    cta_limits: Sequence[int] = (1, 2, 4, 8),
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Dict[int, Dict[str, float]]:
    """Figure 11: mean IPC by concurrent-CTA limit, all normalized to
    the no-prefetch baseline at the maximum CTA count."""
    cfg = config if config is not None else small_config()
    ref_limit = max(cta_limits)
    ref = {
        b: run_benchmark(b, "none", config=cfg.with_cta_limit(ref_limit),
                         scale=scale).ipc
        for b in benchmarks
    }
    out: Dict[int, Dict[str, float]] = {}
    for limit in cta_limits:
        lcfg = cfg.with_cta_limit(limit)
        row: Dict[str, float] = {}
        for engine in ("none",) + tuple(engines):
            ratios = []
            for b in benchmarks:
                r = run_benchmark(b, engine, config=lcfg, scale=scale)
                ratios.append(r.ipc / ref[b])
            row[engine] = geomean(ratios)
        out[limit] = row
    return out


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


def fig12_coverage_accuracy(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Figure 12: per-engine (coverage, accuracy), plus a Mean row."""
    out: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for b in benchmarks:
        row = {}
        for e in engines:
            r = run_benchmark(b, e, config=config, scale=scale)
            row[e] = (r.coverage(), r.accuracy())
        out[b] = row
    out["Mean"] = _mean_pairs(out, benchmarks, engines)
    return out


# --------------------------------------------------------------- Figure 13

def fig13_bandwidth_overhead(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    engines: Sequence[str] = ENGINES,
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Figure 13: (core-request traffic, DRAM read traffic), each
    normalized to the no-prefetch baseline; plus a Mean row."""
    out: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for b in benchmarks:
        base = run_benchmark(b, "none", config=config, scale=scale)
        row = {}
        for e in engines:
            r = run_benchmark(b, e, config=config, scale=scale)
            row[e] = (
                r.core_requests / max(1, base.core_requests),
                r.dram_reads / max(1, base.dram_reads),
            )
        out[b] = row
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

def fig14a_early_prefetch_ratio(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
) -> Dict[str, float]:
    """Figure 14a: mean early-prefetch (evicted-before-use) ratio for
    INTRA / INTER / MTA / CAPS / CAPS without eager wake-up, derived
    from the :mod:`repro.obs` time-series totals."""
    cfg = config if config is not None else small_config()
    cfg = cfg.with_obs(metrics=True)
    nowake = dataclasses.replace(
        cfg, prefetch=dataclasses.replace(cfg.prefetch, eager_wakeup=False)
    )
    out: Dict[str, float] = {}
    for label, engine, c in (
        ("intra", "intra", cfg),
        ("inter", "inter", cfg),
        ("mta", "mta", cfg),
        ("caps", "caps", cfg),
        ("caps_no_wakeup", "caps", nowake),
    ):
        issued = evicted = 0
        for b in benchmarks:
            r = run_benchmark(b, engine, config=c, scale=scale)
            totals = r.extra["timeseries"]["totals"]
            issued += totals["pf_issued"]
            evicted += totals["pf_early_evicted"]
        # Aggregate over all prefetches (issued-weighted), matching the
        # paper's single MEAN bar.
        out[label] = evicted / issued if issued else 0.0
    return out


def fig14b_prefetch_distance(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
) -> Dict[str, float]:
    """Figure 14b: mean prefetch->demand distance of timely CAPS
    prefetches under LRR, the plain two-level scheduler (TLV), and the
    prefetch-aware two-level scheduler (PA-TLV), derived from the
    :mod:`repro.obs` time-series totals."""
    from repro.obs import consumed_prefetches, mean_prefetch_lead

    cfg = config if config is not None else small_config()
    cfg = cfg.with_obs(metrics=True)
    out: Dict[str, float] = {}
    for label, kind in (
        ("LRR", SchedulerKind.LRR),
        ("TLV", SchedulerKind.TWO_LEVEL),
        ("PA-TLV", SchedulerKind.PAS),
    ):
        dists = []
        for b in benchmarks:
            r = run_benchmark(b, "caps", config=cfg, scale=scale,
                              scheduler=kind)
            ts = r.extra["timeseries"]
            if consumed_prefetches(ts):
                dists.append(mean_prefetch_lead(ts))
        out[label] = mean(dists)
    return out


# ------------------------------------------------- Co-run interference

def fig_corun_interference(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    pairs: Sequence[CorunPair] = CORUN_PAIRS,
    policies: Sequence[str] = ALLOC_POLICIES,
    engine: str = "none",
) -> Dict[str, Dict[str, Dict]]:
    """Co-run interference study: per-kernel slowdown, ANTT and STP for
    every curated pair under every CTA allocation policy.

    Not a paper figure — it extends the reproduction to concurrent
    kernels (docs/architecture.md).  For each pair the two kernels also
    run solo (same engine/config, memoized across policies); ANTT is the
    mean per-kernel slowdown ``T_co / T_solo`` and STP the aggregate
    throughput ``Σ T_solo / T_co`` — see docs/metrics-glossary.md.
    """
    from repro.sim.multi import antt_stp

    cfg = config if config is not None else small_config()
    out: Dict[str, Dict[str, Dict]] = {}
    for pair in pairs:
        solo = {
            b: run_benchmark(b, engine, config=cfg, scale=scale).cycles
            for b in pair.name.split("+")
        }
        per_policy: Dict[str, Dict] = {}
        for policy in policies:
            r = run_benchmark(pair.name, engine,
                              config=cfg.with_multi(alloc_policy=policy),
                              scale=scale)
            kernels = r.extra["kernels"]
            t = antt_stp([k["finish_cycle"] for k in kernels],
                         [solo[k["name"]] for k in kernels])
            per_policy[policy] = {
                "total_cycles": r.cycles,
                "antt": t["antt"],
                "stp": t["stp"],
                "slowdowns": {
                    k["name"]: k["finish_cycle"] / solo[k["name"]]
                    for k in kernels
                },
                "kernels": kernels,
            }
        out[pair.name] = per_policy
    return out


# --------------------------------------------------------------- Figure 15

def fig15_energy(
    *,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
) -> Dict[str, float]:
    """Figure 15: CAPS energy normalized to the baseline, per benchmark
    plus the mean."""
    cfg = config if config is not None else small_config()
    out: Dict[str, float] = {}
    for b in benchmarks:
        base = run_benchmark(b, "none", config=cfg, scale=scale)
        caps = run_benchmark(b, "caps", config=cfg, scale=scale)
        out[b] = normalized_energy(caps, base, cfg.num_sms)
    out["Mean"] = mean(list(out.values()))
    return out
