"""Load-stream tracing.

A :class:`LoadTracer` is an inert prefetcher that records every demand
load the SM issues — (cycle, SM, CTA, warp, PC, address, iteration) —
without perturbing the simulation.  It backs the Figure 1 experiment
(offline inter-warp stride analysis): the engine's trace cell runs it
through a :class:`LoadRecorder` and keeps :func:`first_loads` of the
stream.  It is generally useful for debugging workload models:
:func:`trace_kernel` runs a kernel and hands back the merged,
time-ordered records.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.config import GPUConfig
from repro.prefetch.base import Prefetcher
from repro.prefetch.factory import TRACE
from repro.sim.gpu import SimResult, simulate
from repro.sim.kernel import KernelInfo


@dataclass(frozen=True)
class LoadRecord:
    """One dynamic demand load (first coalesced transaction address)."""

    cycle: int
    sm_id: int
    cta_id: int
    warp_slot: int
    warp_in_cta: int
    pc: int
    address: int
    iteration: int
    indirect: bool
    transactions: int


class LoadTracer(Prefetcher):
    """Records the SM's demand-load stream; never prefetches."""

    name = TRACE

    def __init__(self, config: GPUConfig, sm_id: int):
        super().__init__(config, sm_id)
        self.records: List[LoadRecord] = []

    def on_load_issue(self, warp, site, addresses, line_addrs, iteration, now):
        self.records.append(
            LoadRecord(
                cycle=now,
                sm_id=self.sm_id,
                cta_id=warp.cta_id,
                warp_slot=warp.slot,
                warp_in_cta=warp.warp_in_cta,
                pc=site.pc,
                address=addresses[0],
                iteration=iteration,
                indirect=site.indirect,
                transactions=len(addresses),
            )
        )
        return []


@dataclass
class TraceResult:
    """Simulation outcome plus the merged load trace."""

    result: SimResult
    records: List[LoadRecord]

    def by_sm(self) -> Dict[int, List[LoadRecord]]:
        out: Dict[int, List[LoadRecord]] = {}
        for r in self.records:
            out.setdefault(r.sm_id, []).append(r)
        return out

    def by_pc(self, sm_id: Optional[int] = None) -> Dict[int, List[LoadRecord]]:
        out: Dict[int, List[LoadRecord]] = {}
        for r in self.records:
            if sm_id is not None and r.sm_id != sm_id:
                continue
            out.setdefault(r.pc, []).append(r)
        return out

    def to_csv(self, path) -> None:
        """Dump the trace as CSV (one row per dynamic load)."""
        fields = [f for f in LoadRecord.__dataclass_fields__]
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=fields)
            w.writeheader()
            for r in self.records:
                w.writerow(asdict(r))


class LoadRecorder:
    """Prefetcher factory for :func:`repro.sim.gpu.simulate` that keeps
    the :class:`LoadTracer` it makes for each SM."""

    def __init__(self):
        self.tracers: List[LoadTracer] = []

    def __call__(self, config: GPUConfig, sm_id: int) -> LoadTracer:
        tracer = LoadTracer(config, sm_id)
        self.tracers.append(tracer)
        return tracer

    def records(self) -> List[LoadRecord]:
        """Every SM's records, merged in time order."""
        return sorted(
            (r for t in self.tracers for r in t.records),
            key=lambda r: (r.cycle, r.sm_id, r.warp_slot),
        )


def first_loads(records: List[LoadRecord]) -> List[List[int]]:
    """``[sm, pc, warp slot, address, cycle]`` of the first
    iteration-0, direct load of each (SM, PC, warp slot), in stream
    order: all Figure 1 reads of a trace, as plain JSON lists."""
    seen = set()
    out: List[List[int]] = []
    for r in records:
        slot = (r.sm_id, r.pc, r.warp_slot)
        if r.iteration != 0 or r.indirect or slot in seen:
            continue
        seen.add(slot)
        out.append([r.sm_id, r.pc, r.warp_slot, r.address, r.cycle])
    return out


def trace_kernel(
    kernel: KernelInfo,
    config: GPUConfig,
    max_cycles: Optional[int] = None,
) -> TraceResult:
    """Run ``kernel`` under a tracing observer and return the merged,
    time-ordered load stream."""
    recorder = LoadRecorder()
    result = simulate(kernel, config, recorder, max_cycles=max_cycles)
    return TraceResult(result=result, records=recorder.records())
