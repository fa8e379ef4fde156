"""What a simulation returns, and its wire form.

:class:`SimResult` (with its :class:`SMStats` and
:class:`~repro.prefetch.stats.PrefetchStats` blocks) is what
:func:`repro.sim.gpu.simulate` hands back; :func:`serialize_result` /
:func:`deserialize_result` are its lossless JSON form, shared by the
disk cache and the serve protocol.  A leaf module: a socket client or a
cache reader can hold a result without importing the simulator that
produced it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict

from repro.prefetch.stats import PrefetchStats


@dataclass
class SMStats:
    instructions: int = 0
    loads_issued: int = 0
    stores_issued: int = 0
    demand_l1_accesses: int = 0
    demand_mem_fetches: int = 0
    replay_cycles: int = 0
    replay_store_cycles: int = 0
    stall_mem_all: int = 0
    stall_mem_partial: int = 0
    stall_other: int = 0
    issue_cycles: int = 0
    active_cycles: int = 0
    ctas_executed: int = 0

    def merge(self, other: "SMStats") -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))


@dataclass
class SimResult:
    """Aggregated outcome of one simulation run."""

    kernel: str
    prefetcher: str
    scheduler: str
    cycles: int
    instructions: int
    sm_stats: SMStats
    prefetch_stats: PrefetchStats
    l1_accesses: int
    l1_hits: int
    l1_misses: int
    l2_hit_rate: float
    dram_reads: int
    dram_writes: int
    dram_row_hit_rate: float
    core_requests: int
    core_demand_requests: int
    core_prefetch_requests: int
    core_store_requests: int
    completed: bool
    ctas_total: int
    #: Free-form extras; incomplete runs carry their diagnostic
    #: ``hang_snapshot`` here (see :mod:`repro.guard.watchdog`).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def l1_hit_rate(self) -> float:
        """Fraction of L1D accesses that hit (demand only)."""
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0

    def coverage(self) -> float:
        """Prefetch coverage: useful prefetches / demand fetches."""
        return self.prefetch_stats.coverage(self.sm_stats.demand_mem_fetches)

    def accuracy(self) -> float:
        """Prefetch accuracy: useful prefetches / issued prefetches."""
        return self.prefetch_stats.accuracy()

    def stall_fraction(self) -> float:
        """Fraction of SM cycles stalled with every warp waiting on memory."""
        active = self.sm_stats.active_cycles
        return self.sm_stats.stall_mem_all / active if active else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Flatten the headline metrics into a JSON-able dict."""
        return {
            "kernel": self.kernel,
            "prefetcher": self.prefetcher,
            "scheduler": self.scheduler,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
            "l1_hit_rate": self.l1_hit_rate,
            "l2_hit_rate": self.l2_hit_rate,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
            "core_requests": self.core_requests,
            "coverage": self.coverage(),
            "accuracy": self.accuracy(),
            "stall_fraction": self.stall_fraction(),
            "completed": self.completed,
            **{f"pf_{k}": v for k, v in self.prefetch_stats.as_dict().items()},
        }


def serialize_result(result: SimResult) -> Dict[str, Any]:
    """Lossless JSON form of a :class:`SimResult` (stats included)."""
    out = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(SimResult)
    }
    out["sm_stats"] = dataclasses.asdict(result.sm_stats)
    out["prefetch_stats"] = dataclasses.asdict(result.prefetch_stats)
    out["extra"] = dict(result.extra)
    return out


def deserialize_result(payload: Dict[str, Any]) -> SimResult:
    """Inverse of :func:`serialize_result`."""
    data = dict(payload)
    data["sm_stats"] = SMStats(**data["sm_stats"])
    data["prefetch_stats"] = PrefetchStats(**data["prefetch_stats"])
    return SimResult(**data)
