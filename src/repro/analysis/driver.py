"""Experiment driver: runs (benchmark × prefetcher) simulation matrices.

Every figure of the evaluation section is a view over the same runs
(IPC for Fig. 10, coverage/accuracy for Fig. 12, traffic for Fig. 13,
energy for Fig. 15).  Execution is delegated to the process-wide
:class:`repro.exec.ExecutionEngine`, which memoizes results per
:class:`repro.exec.RunKey` in-process (so regenerating all figures
performs each simulation exactly once) and can additionally parallelize across worker processes and persist results to
an on-disk cache — see ``docs/execution.md``.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.config import GPUConfig, SchedulerKind
from repro.errors import hang_snapshot
from repro.exec import DEFAULT_CACHE_DIR, ExecutionEngine, RunKey
from repro.exec.cache import make_key
from repro.exec.runner import CellFailure
from repro.result import SimResult
from repro.workloads import Scale

__all__ = [
    "RunKey",
    "SweepReport",
    "clear_cache",
    "get_engine",
    "set_engine",
    "make_key",
    "matrix_cells",
    "run_benchmark",
    "run_cells",
    "run_sweep",
    "speedups_over_baseline",
]

_ENGINE = ExecutionEngine()


def get_engine() -> ExecutionEngine:
    """The process-wide execution engine."""
    return _ENGINE


def set_engine(engine: ExecutionEngine) -> ExecutionEngine:
    """Install ``engine`` as the process-wide execution engine.

    The CLI (``--jobs``/``--cache``) uses this to configure parallelism
    and persistence; library callers rarely need to.
    """
    global _ENGINE
    _ENGINE = engine
    return engine


def clear_cache() -> None:
    """Drop the engine's in-process memo (persistent cache untouched)."""
    _ENGINE.clear_memo()


def run_benchmark(
    benchmark: str,
    prefetcher: str = "none",
    *,
    config: Optional[GPUConfig] = None,
    scale: Scale = Scale.SMALL,
    scheduler: Optional[SchedulerKind] = None,
    use_cache: bool = True,
) -> SimResult:
    """Simulate one benchmark under one prefetch engine.

    The scheduler defaults to the engine's Figure 10 pairing (PAS for
    CAPS, two-level otherwise); pass ``scheduler`` to override (the
    Figure 14b sweep does).
    """
    key = make_key(benchmark, prefetcher, config=config, scale=scale,
                   scheduler=scheduler)
    return _ENGINE.run(key, use_cache=use_cache)


def matrix_cells(benchmarks, prefetchers, *, config=None,
                 scale: Scale = Scale.SMALL, scheduler=None,
                 ) -> Dict[Tuple[str, str], RunKey]:
    """``(benchmark, prefetcher) -> RunKey`` for every cell of a matrix."""
    return {
        (b, p): make_key(b, p, config=config, scale=scale,
                         scheduler=scheduler)
        for b in benchmarks
        for p in prefetchers
    }


def run_cells(cells: Mapping[Hashable, RunKey]) -> Dict[Hashable, SimResult]:
    """Run labelled cells as one engine batch: label → ``RunKey`` in,
    label → ``SimResult`` out.

    Everything the analysis layer simulates comes through here, all at
    once, so with ``jobs > 1`` the cells execute in parallel, labels
    that name the same cell collapse to one simulation, and cached
    cells are never re-run.
    """
    results = _ENGINE.run_many(list(cells.values()))
    return {label: results[key] for label, key in cells.items()}


@dataclass
class SweepReport:
    """Outcome of a resilient :func:`run_sweep` over a matrix.

    Every (benchmark, prefetcher) cell lands in exactly one of
    ``results`` and ``failures``; a sweep never aborts mid-batch.
    """

    results: Dict[Tuple[str, str], SimResult]
    failures: Dict[Tuple[str, str], CellFailure]
    #: Diagnostic bundle paths written for this invocation's failures.
    bundles: List[pathlib.Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_sweep(
    benchmarks: Sequence[str],
    prefetchers: Sequence[str],
    *,
    config: Optional[GPUConfig] = None,
    scale: Scale = Scale.SMALL,
    scheduler: Optional[SchedulerKind] = None,
    cache_root=None,
) -> SweepReport:
    """Run a matrix resiliently: classify, record, never abort.

    Unlike :func:`run_cells` (fail-fast, raises on the first exhausted
    cell), a sweep records every failure — after bounded retry for
    transient ones — and writes a diagnostic bundle per failed cell
    under ``<cache-root>/diagnostics/``.  The engine's persistent cache
    stores each result as its cell finishes, so re-running a killed
    sweep with the same cache simulates only the unfinished cells.
    """
    keys = matrix_cells(benchmarks, prefetchers, config=config, scale=scale,
                        scheduler=scheduler)
    engine = _ENGINE
    if cache_root is not None:
        root = pathlib.Path(cache_root)
    elif engine.cache is not None:
        root = engine.cache.root
    else:
        root = pathlib.Path(DEFAULT_CACHE_DIR)
    bundles: List[pathlib.Path] = []

    def on_complete(key, result, failure):
        if failure is None:
            return
        from repro.guard.bundle import write_diagnostic_bundle

        err = failure.error
        bundle = write_diagnostic_bundle(
            root, cell=key.describe(), config=key.config, error=err,
            snapshot=hang_snapshot(err), events=engine.events,
            seed=engine.faults.seed if engine.faults is not None else None,
        )
        if bundle is not None:
            bundles.append(bundle)

    results, failures = engine.run_recorded(list(keys.values()),
                                            on_complete=on_complete)
    return SweepReport(
        results={bp: results[key] for bp, key in keys.items()
                 if key in results},
        failures={bp: failures[key] for bp, key in keys.items()
                  if key in failures},
        bundles=bundles)


def speedups_over_baseline(
    matrix: Mapping[Tuple[str, str], SimResult],
    benchmarks: Sequence[str],
    prefetchers: Sequence[str],
    baseline: str = "none",
) -> Dict[Tuple[str, str], float]:
    """Normalized IPC per (benchmark, prefetcher) over the baseline."""
    out: Dict[Tuple[str, str], float] = {}
    for b in benchmarks:
        base = matrix[(b, baseline)].ipc
        if base <= 0:
            raise ValueError(f"baseline IPC for {b} is non-positive")
        for p in prefetchers:
            out[(b, p)] = matrix[(b, p)].ipc / base
    return out
