"""Multi-kernel applications (paper Figure 2b).

A GPU application is a sequence of kernels; caches and DRAM row state
persist between them, so a later kernel can hit on an earlier kernel's
output (producer/consumer pipelines).  :func:`simulate_application`
runs a kernel list back-to-back on one shared memory system and reports
per-kernel results plus application-level aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.config import GPUConfig
from repro.sim.gpu import GPU, SimResult
from repro.sim.kernel import KernelInfo


@dataclass
class ApplicationResult:
    """Outcome of a multi-kernel run."""

    kernels: List[SimResult]
    total_cycles: int
    total_instructions: int

    @property
    def ipc(self) -> float:
        return (self.total_instructions / self.total_cycles
                if self.total_cycles else 0.0)

    @property
    def completed(self) -> bool:
        return all(k.completed for k in self.kernels)


def simulate_application(
    kernels: Sequence[KernelInfo],
    config: GPUConfig,
    prefetcher_factory: Optional[Callable] = None,
) -> ApplicationResult:
    """Run ``kernels`` sequentially with a persistent memory system.

    Each kernel gets fresh SMs (fresh L1s and prefetcher state — kernel
    launches flush the L1 on real GPUs) but the L2 slices and DRAM
    open-row state carry over, so inter-kernel reuse is modeled.
    Per-kernel traffic counters are reported as deltas.
    """
    if not kernels:
        raise ValueError("application needs at least one kernel")
    results: List[SimResult] = []
    total_cycles = 0
    subsystem = None
    for kernel in kernels:
        gpu = GPU(kernel, config, prefetcher_factory)
        if subsystem is not None:
            # Adopt the previous kernel's memory system: keep L2/DRAM
            # state, rebind the response path to the new SMs, zero the
            # traffic counters so per-kernel stats are deltas.
            subsystem.on_response = gpu._on_response
            subsystem.core_requests = 0
            subsystem.core_demand_requests = 0
            subsystem.core_prefetch_requests = 0
            subsystem.core_store_requests = 0
            subsystem.responses_delivered = 0
            for part in subsystem.partitions:
                part.cache.accesses = part.cache.hits = part.cache.misses = 0
            for ch in subsystem.channels:
                ch.reads = ch.writes = 0
                ch.row_hits = ch.row_misses = 0
                # The new kernel restarts the clock at 0: clear absolute
                # bank/bus timestamps (keep the open-row state — that is
                # the physical carry-over being modeled).
                ch._bank_free.clear()
                ch._bus_free = 0
            gpu.subsystem = subsystem
            for sm in gpu.sms:
                sm.subsystem = subsystem
        result = gpu.run()
        results.append(result)
        total_cycles += result.cycles
        subsystem = gpu.subsystem
    return ApplicationResult(
        kernels=results,
        total_cycles=total_cycles,
        total_instructions=sum(r.instructions for r in results),
    )
