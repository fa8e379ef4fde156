"""Paper-shape validation: the evaluation section's qualitative claims
as executable checks.

:func:`validate_shape` runs the (benchmark × engine) matrix and grades
each claim from Section VI, returning structured results — the
regression gate for "does this code still reproduce the paper?".  The
benchmark harness asserts the same claims; this module makes them
available programmatically (and to ``python -m repro``-driven CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.driver import run_matrix, speedups_over_baseline
from repro.analysis.metrics import geomean, mean
from repro.config import GPUConfig
from repro.workloads import ALL_BENCHMARKS, IRREGULAR, REGULAR, Scale


@dataclass(frozen=True)
class Check:
    """One graded claim."""

    name: str
    passed: bool
    measured: float
    expectation: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "PASS" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: {self.measured:.3f} ({self.expectation})"


def validate_shape(
    *,
    benchmarks: Sequence[str] = ALL_BENCHMARKS,
    scale: Scale = Scale.SMALL,
    config: Optional[GPUConfig] = None,
) -> List[Check]:
    """Grade the paper's headline claims on the given benchmark set."""
    engines = ("none", "inter", "caps")
    # One batched matrix, so the execution engine can run cells in
    # parallel (and serve repeats from its cache) before grading.
    matrix = run_matrix(benchmarks, engines, config=config, scale=scale)
    data: Dict[str, Dict[str, object]] = {}
    for b in benchmarks:
        data[b] = {e: matrix[(b, e)] for e in engines}
    sp = speedups_over_baseline(matrix, benchmarks, ("inter", "caps"))
    caps_sp = {b: sp[(b, "caps")] for b in benchmarks}
    inter_sp = [sp[(b, "inter")] for b in benchmarks]
    reg = [b for b in benchmarks if b in REGULAR]
    irreg = [b for b in benchmarks if b in IRREGULAR]

    checks: List[Check] = []

    gm_caps = geomean(list(caps_sp.values()))
    checks.append(Check(
        "caps_mean_speedup_positive", gm_caps > 1.0, gm_caps,
        "paper: +8% mean",
    ))
    gm_inter = geomean(inter_sp)
    checks.append(Check(
        "inter_mean_speedup_negative", gm_inter < 1.0, gm_inter,
        "paper: INTER is net negative",
    ))
    checks.append(Check(
        "caps_beats_inter", gm_caps > gm_inter, gm_caps - gm_inter,
        "paper: CAPS > INTER everywhere that matters",
    ))
    if reg:
        gm_reg = geomean([caps_sp[b] for b in reg])
        checks.append(Check(
            "caps_regular_gain", gm_reg > 1.0, gm_reg, "paper: +9% regular",
        ))
    if irreg:
        gm_irr = geomean([caps_sp[b] for b in irreg])
        checks.append(Check(
            "caps_irregular_no_regression", gm_irr > 0.97, gm_irr,
            "paper: +6% irregular (never a large loss)",
        ))

    acc = mean([
        data[b]["caps"].accuracy() for b in benchmarks
        if data[b]["caps"].prefetch_stats.issued
    ])
    checks.append(Check(
        "caps_accuracy_high", acc > 0.85, acc, "paper: 97% accuracy",
    ))

    inter_acc = mean([
        data[b]["inter"].accuracy() for b in benchmarks
        if data[b]["inter"].prefetch_stats.issued
    ])
    checks.append(Check(
        "caps_more_accurate_than_inter", acc > inter_acc, acc - inter_acc,
        "paper: Fig. 12b ordering",
    ))

    overhead = mean([
        data[b]["caps"].dram_reads / max(1, data[b]["none"].dram_reads)
        for b in benchmarks
    ])
    checks.append(Check(
        "caps_dram_overhead_small", overhead < 1.10, overhead,
        "paper: ~1% extra DRAM reads",
    ))

    issued = sum(data[b]["caps"].prefetch_stats.issued for b in benchmarks)
    evicted = sum(
        data[b]["caps"].prefetch_stats.early_evicted for b in benchmarks
    )
    early = evicted / issued if issued else 0.0
    checks.append(Check(
        "caps_early_prefetch_rare", early < 0.10, early,
        "paper: 0.91% early evictions (issued-weighted)",
    ))
    return checks


def all_passed(checks: Sequence[Check]) -> bool:
    return all(c.passed for c in checks)
