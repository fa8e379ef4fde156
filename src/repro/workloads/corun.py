"""Curated co-run pairs for the concurrent-kernel experiments.

The interference study (docs/architecture.md, "Concurrent-kernel
execution") crosses a memory-intensive kernel with a compute-bound one:
that is the regime where the CTA allocation policy matters most — the
memory kernel hoards bandwidth while the compute kernel starves for CTA
slots, so preemptive SRTF allocation can drain the short kernel early
and buy ANTT without hurting throughput.

Each pair is expressed as the canonical ``"A+B"`` co-run benchmark
string accepted everywhere a single abbreviation is (``repro run``,
:func:`repro.analysis.driver.make_key`, the serve protocol).  Kernel order matters for per-kernel records (kernel 0 is
listed first) but not for the cache key semantics — ``"A+B"`` and
``"B+A"`` are distinct schedules and distinct cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.workloads.suite import canonical_name

__all__ = ["CorunPair", "CORUN_PAIRS", "DEFAULT_PAIR", "corun_name"]


@dataclass(frozen=True)
class CorunPair:
    """One curated two-kernel co-schedule.

    ``memory`` is the bandwidth/latency-bound kernel, ``compute`` the
    ALU-bound one; ``name`` is the canonical co-run benchmark string
    (memory kernel first, so its per-kernel record is ``kernels[0]``).
    """

    memory: str
    compute: str
    #: One-line rationale shown in figure captions.
    why: str = ""

    @property
    def name(self) -> str:
        return corun_name(self.memory, self.compute)


def corun_name(*benchmarks: str) -> str:
    """Canonical co-run benchmark string for the given kernels."""
    if len(benchmarks) < 2:
        raise ValueError("a co-run names at least two kernels")
    return "+".join(canonical_name(b) for b in benchmarks)


#: The interference-figure pairs: memory-divergent × compute-bound.
CORUN_PAIRS: Tuple[CorunPair, ...] = (
    CorunPair("MRQ", "MM",
              "streaming MapReduce query vs. tiled SGEMM (the paper's "
              "canonical bandwidth-vs-ALU cross)"),
    CorunPair("BFS", "CP",
              "irregular frontier expansion vs. embarrassingly regular "
              "Coulomb potential"),
    CorunPair("KM", "FFT",
              "data-dependent clustering vs. butterfly compute"),
)

#: The pair pinned by tests and the CI smoke run.
DEFAULT_PAIR: CorunPair = CORUN_PAIRS[0]
