"""Benchmark specification scaffolding."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict

if TYPE_CHECKING:  # annotation only: Scale stays importable without repro.sim
    from repro.sim.kernel import KernelInfo


class Scale(enum.Enum):
    """Workload sizing.

    ``TINY`` for unit tests (a handful of CTAs), ``SMALL`` for the
    experiment sweeps on :func:`repro.config.small_config` (a few CTA
    waves over 4 SMs), ``FULL`` for the Table III 15-SM machine.  The
    paper simulates up to one billion instructions; the pure-Python
    model scales the grids down while keeping ≥2 waves of CTAs per SM so
    the demand-driven distribution and per-CTA base discovery are fully
    exercised.
    """

    TINY = "tiny"
    SMALL = "small"
    FULL = "full"


#: CTA-count multipliers per scale (builders multiply their wave shape).
SCALE_CTAS: Dict[Scale, int] = {
    Scale.TINY: 8,
    Scale.SMALL: 64,
    Scale.FULL: 240,
}


@dataclass(frozen=True)
class Fig4Stats:
    """Loop/load statistics reported under Figure 4's x-axis.

    ``looped_loads``/``total_loads`` are the paper's published per-app
    counts; ``paper_mean_iterations`` is the figure's bar height for the
    four most frequent loads (approximate where the bar is truncated).
    """

    looped_loads: int
    total_loads: int
    paper_mean_iterations: float


@dataclass(frozen=True)
class BenchmarkSpec:
    """One Table IV workload."""

    abbr: str
    full_name: str
    suite: str
    irregular: bool
    description: str
    fig4: Fig4Stats
    builder: Callable[[Scale], KernelInfo] = field(compare=False)

    def build(self, scale: Scale = Scale.SMALL) -> KernelInfo:
        kernel = self.builder(scale)
        kernel.irregular = self.irregular
        return kernel
