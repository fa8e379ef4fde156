"""The paper's claims, declared once: the fidelity scoreboard.

:data:`CLAIMS` has one row per graded statement — the figure whose data
it reads, a stable name, the paper's value or sentence, a measure over
that figure's returned data and the band the measure must land in.
:func:`grade` gives each row of one figure ``pass`` / ``FAIL`` / ``n/a``
(nothing to measure on this benchmark set; never decides an exit code).
Three consumers share the table and one :func:`experiment_plan`:
``repro validate`` prints every row and exits 1 on a ``FAIL``, ``repro
figures`` renders each section's rows into EXPERIMENTS.md, and
``tests/integration/test_paper_shape.py`` asserts a subset in tier-1.

The simulator is a scaled-down model (DESIGN.md §2), so a band holds
the paper's *shape* — sign, ordering, rough magnitude — not its number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.analysis import figures as F
from repro.analysis.driver import get_engine
from repro.analysis.metrics import geomean
from repro.config import GPUConfig, fermi_config
from repro.workloads import ALL_BENCHMARKS, CORUN_PAIRS, Scale

Measure = Callable[[Any], Optional[float]]


@dataclass(frozen=True)
class Claim:
    """One graded statement: ``lo <= measure(data) <= hi``."""

    figure: str                 # the experiment_plan entry whose data it reads
    name: str
    paper: Union[float, str]    # the paper's value, or its sentence
    measure: Measure            # None (or KeyError): nothing to measure
    lo: float = -math.inf
    hi: float = math.inf


@dataclass(frozen=True)
class Row:
    """A :class:`Claim` with its measured value on one run."""

    claim: Claim
    measured: Optional[float]

    @property
    def status(self) -> str:
        if self.measured is None:
            return "n/a"
        ok = self.claim.lo <= self.measured <= self.claim.hi
        return "pass" if ok else "FAIL"

    def cells(self) -> Tuple[str, str, str, str, str]:
        """``(claim, paper, measured, band, status)`` as printed."""
        c = self.claim
        band = [f"{op}{'' if isinstance(end, _Strict) else '='} {_show(end)}"
                for op, end in ((">", c.lo), ("<", c.hi))
                if not math.isinf(end)]
        return (c.name, c.paper if isinstance(c.paper, str) else _show(c.paper),
                "n/a" if self.measured is None else _show(self.measured),
                ", ".join(band), self.status)


def _show(x: float) -> str:
    """Four decimals, trailing zeros dropped."""
    return f"{round(x, 4):g}"


class _Strict(float):
    """A band end one ulp inside ``x``: the closed interval then encodes
    a strict inequality, and the end prints as one (``> x``)."""


def _above(x: float) -> float:
    return _Strict(math.nextafter(x, math.inf))


def _below(x: float) -> float:
    return _Strict(math.nextafter(x, -math.inf))


# ------------------------------------------------------------- measures
#
# Each reads the data one figure function returns.  A ``KeyError`` (a
# benchmark, group or study this run does not include) or ``None`` (an
# engine that issued no prefetch) means there is nothing to measure.

def _ipc(engine: str, row: str = "Mean(all)") -> Measure:
    return lambda d: d[row][engine]


def _lead(row: Dict[str, float], engine: str = "caps") -> float:
    """``engine``'s margin over the best of the other entries of ``row``."""
    return row[engine] - max(v for e, v in row.items() if e != engine)


def _steps(values: Sequence[float]) -> float:
    """Smallest successive difference: ``>= 0`` iff ``values`` never fall."""
    return min(b - a for a, b in zip(values, values[1:]))


def _sub(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return None if a is None or b is None else a - b


def _div(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return a / b if a is not None and b else None


def _fig1_accuracy(d) -> Dict[int, float]:
    return {p.distance: p.accuracy for p in d}


def _fig4_iterations(d, *benchmarks: str) -> List[float]:
    by = {r.benchmark: r.model_mean_iterations for r in d}
    return [by[b] for b in benchmarks]


def _fig11_edge(d, limit: int) -> float:
    return d[limit]["caps"] / d[limit]["none"]


def _l1_baseline_spread(d) -> float:
    """How far more L1 hurts the baseline: zero when its IPC never falls
    with capacity, otherwise the whole spread of the sweep."""
    ipc = [v["base_ipc"] for v in d["l1"].values()]
    return 0.0 if _steps(ipc) >= 0 else max(ipc) - min(ipc)


_OURS = "(ours)"     # a design-choice study with no paper number

CLAIMS: Tuple[Claim, ...] = (
    # ------------------------------------------------------------- Fig. 1
    Claim("fig1", "accuracy_high_at_distance_1", "~75 % at distance 1",
          lambda d: _fig1_accuracy(d)[1], lo=_above(0.8)),
    Claim("fig1", "accuracy_collapses_across_cta",
          "below 20 % past distance 7 (8 warps per CTA)",
          lambda d: _div(_fig1_accuracy(d)[8], _fig1_accuracy(d)[1]),
          hi=_below(0.5)),
    Claim("fig1", "gap_grows_with_distance", "gap rises to ~400 cycles",
          lambda d: _steps([p.mean_gap_cycles for p in d]), lo=0.0),
    # ------------------------------------------------------------- Fig. 4
    Claim("fig4", "loop_free_apps_execute_once", "most loads are not in loops",
          lambda d: max(_fig4_iterations(
              d, "CP", "BPR", "HSP", "MRQ", "JC1", "FFT", "SCN")),
          lo=1.0, hi=1.0),
    Claim("fig4", "loop_apps_iterate", "loop apps iterate",
          lambda d: min(_fig4_iterations(
              d, "LPS", "STE", "HST", "MM", "KM", "BFS")),
          lo=_above(1.0)),
    # ------------------------------------------------------------ Fig. 10
    Claim("fig10", "caps_mean_all", 1.08, _ipc("caps"), lo=_above(1.02)),
    Claim("fig10", "caps_mean_regular", 1.09, _ipc("caps", "Mean(reg)"),
          lo=_above(1.02)),
    Claim("fig10", "caps_mean_irregular", 1.06, _ipc("caps", "Mean(irreg)"),
          lo=_above(1.0)),
    Claim("fig10", "caps_best_case_cnv", 1.27, _ipc("caps", "CNV"),
          lo=_above(1.12)),
    Claim("fig10", "caps_beats_every_engine", "CAPS outperforms all six",
          lambda d: _lead(d["Mean(all)"]), lo=_above(0.0)),
    Claim("fig10", "inter_mean_negative", "INTER loses to no prefetching",
          _ipc("inter"), hi=_below(1.0)),
    Claim("fig10", "mta_no_better_than_intra", "MTA no better than INTRA",
          lambda d: d["Mean(all)"]["mta"] - d["Mean(all)"]["intra"], hi=0.02),
    Claim("fig10", "lap_near_neutral", "~+1 % on a two-level baseline",
          _ipc("lap"), _above(0.9), 1.05),
    Claim("fig10", "orch_near_neutral", "~+1 % on a two-level baseline",
          _ipc("orch"), _above(0.9), 1.05),
    # ------------------------------------------------------------ Fig. 11
    Claim("fig11", "one_cta_below_full_baseline",
          "every engine at 1 CTA/SM is far below the 8-CTA baseline",
          lambda d: max(d[1].values()), hi=_below(1.0)),
    Claim("fig11", "baseline_grows_with_ctas",
          "curtailing CTAs is never worth it",
          lambda d: _steps([d[n]["none"] for n in sorted(d)]), lo=0.0),
    Claim("fig11", "caps_edge_grows_with_ctas",
          "CAPS gives nothing at 1 CTA/SM and pulls ahead with more",
          lambda d: _fig11_edge(d, max(d)) - _fig11_edge(d, 1),
          lo=_above(0.0)),
    Claim("fig11", "caps_best_at_max_ctas", "CAPS best at 8 CTAs/SM",
          lambda d: _lead(d[max(d)]), lo=0.0),
    # ------------------------------------------------------------ Fig. 12
    Claim("fig12", "caps_accuracy", 0.97,
          lambda d: d["Mean"]["caps"][1] if d["Issued"]["caps"] else None,
          lo=_above(0.85)),
    Claim("fig12", "caps_most_accurate",
          "highest accuracy of the seven; INTER far lower",
          lambda d: (_lead({e: acc for e, (_, acc) in d["Mean"].items()})
                     if d["Issued"]["caps"] else None),
          lo=_above(0.0)),
    Claim("fig12", "indirect_apps_low_coverage",
          "indirect loads of PVR / CCL / BFS are excluded",
          lambda d: max((d[b]["caps"][0] for b in ("PVR", "CCL", "BFS")
                         if b in d), default=None), hi=_below(0.5)),
    Claim("fig12", "hsp_throttled", "HSP throttled: low coverage",
          lambda d: d["HSP"]["caps"][0], hi=_below(0.3)),
    # ------------------------------------------------------------ Fig. 13
    Claim("fig13", "caps_request_overhead", 1.03,
          lambda d: d["Mean"]["caps"][0], hi=_below(1.10)),
    Claim("fig13", "caps_dram_overhead", 1.01,
          lambda d: d["Mean"]["caps"][1], hi=_below(1.05)),
    Claim("fig13", "low_accuracy_costs_dram_reads",
          "INTER / MTA inflate traffic 2x+",
          lambda d: (min(d["Mean"]["inter"][1], d["Mean"]["nlp"][1])
                     - d["Mean"]["caps"][1]),
          lo=_above(0.0)),
    # ----------------------------------------------------------- Fig. 14a
    Claim("fig14a", "caps_early_ratio", 0.0091, lambda d: d["caps"],
          hi=_below(0.10)),
    Claim("fig14a", "eager_wakeup_no_worse", "1.16 % without eager wake-up",
          lambda d: _sub(d["caps"], d["caps_no_wakeup"]), hi=1e-9),
    Claim("fig14a", "caps_below_stride_engines",
          "INTRA / INTER / MTA evict several % early",
          lambda d: _sub(min((d[e] for e in ("intra", "inter", "mta")
                              if d[e] is not None), default=None),
                         d["caps"]),
          lo=_above(0.0)),
    # ----------------------------------------------------------- Fig. 14b
    Claim("fig14b", "lrr_shorter_than_two_level",
          "64.3 (LRR) < 145.0 (two-level) cycles",
          lambda d: _sub(d["TLV"], d["LRR"]), lo=_above(0.0)),
    Claim("fig14b", "pas_no_shorter_than_two_level",
          "PAS stretches the two-level distance",
          lambda d: _div(d["TLV"], d["PA-TLV"]), hi=1.02),
    Claim("fig14b", "pas_distance", 172.7, lambda d: d["PA-TLV"],
          lo=_above(100.0)),
    # ------------------------------------------------------------ Fig. 15
    Claim("fig15", "caps_mean_energy", 0.98, lambda d: d["Mean"],
          hi=_below(1.02)),
    Claim("fig15", "no_energy_blow_up", "no app pays a large energy cost",
          lambda d: max(d.values()), hi=_below(1.15)),
    # --------------------------------------------------- Ablations (ours)
    Claim("ablations", "quick_throttle_spares_hsp", _OURS,
          lambda d: (d["threshold"][2]["speedup"]["HSP"]
                     - d["threshold"][64]["speedup"]["HSP"]), lo=-0.02),
    Claim("ablations", "regular_apps_ignore_threshold", _OURS,
          lambda d: abs(d["threshold"][2]["speedup"]["CNV"]
                        - d["threshold"][64]["speedup"]["CNV"]),
          hi=_below(0.08)),
    Claim("ablations", "four_entries_beat_one",
          "one entry thrashes multi-load kernels",
          lambda d: d["tables"][4]["geomean"] - d["tables"][1]["geomean"],
          lo=0.0),
    Claim("ablations", "four_entries_suffice",
          "more than four entries did not alter performance",
          lambda d: abs(d["tables"][4]["geomean"] - d["tables"][8]["geomean"]),
          hi=_below(0.05)),
    Claim("ablations", "window_16_no_worse_than_2", _OURS,
          lambda d: d["window"][16]["geomean"] - d["window"][2]["geomean"],
          lo=_above(-0.02)),
    Claim("ablations", "cap_profits_on_two_level_and_pas",
          "CAP profits with and without PAS",
          lambda d: min(d["scheduler"][s]["geomean"]
                        for s in ("two-level", "PAS")), lo=_above(1.0)),
    # ------------------------------------- Section I: NN and sensitivity
    Claim("sec1_nn", "nn_all_warps_stalled", 0.62,
          lambda d: d["stall_all"], _above(0.45), _below(0.80)),
    Claim("sec1_nn", "nn_run_completes", "the kernel runs to completion",
          lambda d: d["completed"], lo=1.0),
    Claim("sensitivity", "more_l1_never_hurts_baseline", _OURS,
          _l1_baseline_spread, hi=_below(0.15)),
    Claim("sensitivity", "caps_gains_at_every_l1_size",
          "fewer L1 lines per warp make misses burstier",
          lambda d: min(v["geomean"] for v in d["l1"].values()),
          lo=_above(1.0)),
    Claim("sensitivity", "caps_gains_at_64_warps",
          "more warps per SM make prefetching more critical",
          lambda d: d["warps"][64]["geomean"], lo=_above(1.0)),
    Claim("sensitivity", "caps_never_regresses_hard_by_warps", _OURS,
          lambda d: min(v["geomean"] for v in d["warps"].values()),
          lo=_above(0.95)),
    Claim("sensitivity", "bandwidth_helps_baseline", _OURS,
          lambda d: _steps([v["base_ipc"] for v in d["dram"].values()]),
          lo=0.0),
    Claim("sensitivity", "caps_needs_dram_headroom", _OURS,
          lambda d: d["dram"][4]["geomean"] - d["dram"][1]["geomean"],
          lo=_above(-0.05)),
    # ------------------------ Fig. 10 on the Table III machine, FULL scale
    Claim("fig10_full", "full_caps_mean_all", "+8 % mean IPC", _ipc("caps"),
          lo=_above(1.03)),
    Claim("fig10_full", "full_caps_mean_irregular", "+6 % irregular",
          _ipc("caps", "Mean(irreg)"), lo=_above(1.02)),
    Claim("fig10_full", "full_caps_beats_every_engine",
          "CAPS outperforms all six",
          lambda d: _lead(d["Mean(all)"]), lo=_above(0.0)),
    Claim("fig10_full", "full_inter_mean_negative",
          "INTER loses to no prefetching", _ipc("inter"), hi=_below(1.0)),
    Claim("fig10_full", "full_spot_check",
          "CAPS wins on a regular, a stencil and an irregular app",
          lambda d: geomean([d[b]["caps"] for b in ("BPR", "LPS", "CCL")]),
          lo=_above(1.03)),
)


def grade(figure: str, data: Any) -> List[Row]:
    """The rows of :data:`CLAIMS` that read ``figure``, measured on the
    ``data`` that figure function returned."""
    def measured(claim: Claim) -> Optional[float]:
        try:
            return claim.measure(data)
        except KeyError:
            return None
    return [Row(c, measured(c)) for c in CLAIMS if c.figure == figure]


def reproduced(rows: Sequence[Row]) -> bool:
    """No row fails (``n/a`` rows do not count either way)."""
    return all(row.status != "FAIL" for row in rows)


# ------------------------------------------------------------------ plan

#: Figure 11 sweeps four CTA limits × eight engines per benchmark, so by
#: default it runs on representatives rather than all sixteen.
FIG11_BENCHMARKS = ("LPS", "BPR", "CNV", "MM", "STE", "KM")

Plan = List[Tuple[str, Callable[..., Any], Dict[str, Any]]]


def experiment_plan(
    *,
    scale: Scale = Scale.SMALL,
    benchmarks: Optional[Sequence[str]] = None,
    fig11_benchmarks: Optional[Sequence[str]] = None,
    config: Optional[GPUConfig] = None,
    include_full_scale: bool = False,
) -> Plan:
    """Every experiment ``repro figures`` renders and ``repro validate``
    grades, as ``(name, figure function, arguments)``.

    ``benchmarks`` defaults to the Table IV suite; a subset runs
    Figure 11 on its first two names unless ``fig11_benchmarks`` says
    otherwise.  A study on a fixed benchmark set (a co-run pair, the
    ablations, the Section I sweeps and with them its nearest-neighbor
    measurement) is planned when its set is within ``benchmarks``.
    """
    if fig11_benchmarks is None:
        fig11_benchmarks = (FIG11_BENCHMARKS if benchmarks is None
                            else tuple(benchmarks)[:2])
    benchmarks = ALL_BENCHMARKS if benchmarks is None else tuple(benchmarks)
    have = set(benchmarks)
    machine = dict(scale=scale, config=config)
    suite = dict(machine, benchmarks=benchmarks)
    plan: Plan = [
        ("fig1", F.fig1_interwarp_accuracy, machine),
        ("fig4", F.fig4_loop_iterations, {}),
        ("fig10", F.fig10_normalized_ipc, suite),
        ("fig11", F.fig11_cta_sweep,
         dict(suite, benchmarks=tuple(fig11_benchmarks))),
        ("fig12", F.fig12_coverage_accuracy, suite),
        ("fig13", F.fig13_bandwidth_overhead, suite),
        ("fig14a", F.fig14a_early_prefetch_ratio, suite),
        ("fig14b", F.fig14b_prefetch_distance, suite),
        ("fig15", F.fig15_energy, suite),
    ]
    pairs = tuple(p for p in CORUN_PAIRS
                  if set(p.name.split("+")) <= have)
    if pairs:
        plan.append(("corun", F.fig_corun_interference,
                     dict(machine, pairs=pairs)))
    studies = [group for group, (needs, _) in F.STUDIES.items()
               if set(needs) <= have]
    plan += [(group, F.fig_caps_variants, dict(machine, group=group))
             for group in studies]
    if "sensitivity" in studies:    # Section I's kernel beside its sweeps
        plan.append(("sec1_nn", F.sec1_nn_stalls, machine))
    if include_full_scale:
        plan.append(("fig10_full", F.fig10_normalized_ipc, dict(
            scale=Scale.FULL, benchmarks=benchmarks,
            config=fermi_config(max_cycles=3_000_000))))
    return plan


def run_plan(plan: Plan) -> Dict[str, Any]:
    """Each plan entry's data, by name.  The union of the entries' cells
    is simulated first, as one engine batch (one pool at ``--jobs N``);
    the figure functions then read it back as memo hits."""
    get_engine().run_many([
        key for _, figure, kwargs in plan if hasattr(figure, "cells")
        for key in figure.cells(**kwargs).values()])
    return {name: figure(**kwargs) for name, figure, kwargs in plan}


def scoreboard(data: Dict[str, Any]) -> List[Row]:
    """Every graded row of a :func:`run_plan` result, in plan order."""
    return [row for name in data for row in grade(name, data[name])]
