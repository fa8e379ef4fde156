"""Top-level GPU: SMs + shared memory system + CTA distributor.

:func:`simulate` is the main entry point used by examples, tests and the
benchmark harness: it runs one kernel to completion under a given config
and prefetcher and returns a :class:`SimResult` holding every metric the
paper's figures report.  :func:`simulate_corun` runs several kernels at
once on the same driver: a single kernel is a launch of one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.config import GPUConfig
from repro.guard.invariants import InvariantChecker
from repro.guard.watchdog import Watchdog, build_snapshot
from repro.mem.subsystem import MemorySubsystem
from repro.obs import build as build_obs
from repro.prefetch.base import NoPrefetcher
from repro.prefetch.stats import PrefetchStats
from repro.sim.cta import CTADistributor
from repro.sim.fastcore import flush_memory, run_loop
from repro.result import SimResult, SMStats
from repro.sim.kernel import KernelInfo
from repro.sim.multi.app import MultiKernelApp
from repro.sim.sm import SM


class GPU:
    """Whole-GPU simulation driver.

    Owns the SMs, the shared memory subsystem, the CTA distributor and
    the optional cross-cutting services: the hang watchdog and runtime
    invariants (:mod:`repro.guard`, enabled via ``config.hang_cycles`` /
    ``config.deep_checks``) and the observability hub
    (:mod:`repro.obs`, enabled via ``config.obs``).  Construction
    launches the initial CTA wave; :meth:`run` advances the machine
    (:func:`repro.sim.fastcore.run_loop`, with the step
    ``config.engine`` selects) until every CTA retires.

    Most callers should use :func:`simulate` / :func:`simulate_corun`
    rather than instantiating this class directly.  ``self.app`` is the
    launch: its combined ``name`` ("A+B"), summed ``num_ctas`` and the
    virtualized ``kernels``.
    """

    def __init__(
        self,
        kernels: Sequence[KernelInfo],
        config: GPUConfig,
        prefetcher_factory=None,
        faults=None,
    ):
        self.app = MultiKernelApp(kernels)
        self.config = config
        factory = prefetcher_factory or (lambda cfg, sm_id: NoPrefetcher(cfg, sm_id))
        injector = None
        if faults is not None and faults.affects_simulation:
            from repro.guard.faults import MemoryFaultInjector
            injector = MemoryFaultInjector(faults)
        self.subsystem = MemorySubsystem(
            config, config.num_sms, self._on_response, faults=injector
        )
        self.watchdog = (Watchdog(config.hang_cycles)
                         if config.hang_cycles else None)
        self.invariants = InvariantChecker(config)
        # Created before the SMs: the initial wave below already emits
        # CTA/warp launch events through the hub.
        self.obs = build_obs(config, config.num_sms)
        self.sms: List[SM] = [
            SM(sm_id, config, factory(config, sm_id), self.subsystem,
               self._on_cta_done, obs=self.obs)
            for sm_id in range(config.num_sms)
        ]
        self.distributor = CTADistributor(self.app.kernels, config)
        self.now = 0
        for sm_id, kid, cta_id in self.distributor.initial_fill():
            self.sms[sm_id].launch_cta(cta_id, 0, self.app.kernels[kid])

    def _on_response(self, req) -> None:
        self.sms[req.sm_id].on_mem_response(req, self.now)

    def _on_cta_done(self, sm_id: int, cta, now: int) -> None:
        grants = self.distributor.on_cta_finish(
            sm_id, cta.kernel_id, now - cta.launch_cycle, now)
        for kid, cta_id in grants:
            self.sms[sm_id].launch_cta(cta_id, now, self.app.kernels[kid])

    @property
    def done(self) -> bool:
        """True once every SM has retired all of its CTAs."""
        return all(sm.done for sm in self.sms)

    def run(self, max_cycles: Optional[int] = None) -> SimResult:
        """Run to completion (or ``max_cycles``)."""
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        run_loop(self, limit)
        completed = self.done
        cycles = self.now
        if completed:
            flush_memory(self)
        for sm in self.sms:
            sm.finalize()
        obs = self.obs
        if obs is not None:
            obs.finalize(self, cycles)
        self.invariants.verify_end(self, completed)
        result = self._collect(completed, cycles)
        if obs is not None:
            obs.attach_results(result.extra, self.config.num_sms)
        if not completed:
            result.extra["hang_snapshot"] = build_snapshot(self, cycles)
        return result

    def _collect(self, completed: bool, cycles: Optional[int] = None) -> SimResult:
        sm_stats = SMStats()
        pstats = PrefetchStats()
        l1_acc = l1_hit = l1_miss = 0
        for sm in self.sms:
            sm_stats.merge(sm.stats)
            pstats.merge(sm.pstats)
            l1_acc += sm.l1.accesses
            l1_hit += sm.l1.hits
            l1_miss += sm.l1.misses
        sub = self.subsystem
        result = SimResult(
            kernel=self.app.name,
            prefetcher=self.sms[0].prefetcher.name,
            scheduler=self.config.scheduler.value,
            cycles=cycles if cycles is not None else self.now,
            instructions=sm_stats.instructions,
            sm_stats=sm_stats,
            prefetch_stats=pstats,
            l1_accesses=l1_acc,
            l1_hits=l1_hit,
            l1_misses=l1_miss,
            l2_hit_rate=sub.l2_hit_rate(),
            dram_reads=sub.dram_reads,
            dram_writes=sub.dram_writes,
            dram_row_hit_rate=sub.dram_row_hit_rate,
            core_requests=sub.core_requests,
            core_demand_requests=sub.core_demand_requests,
            core_prefetch_requests=sub.core_prefetch_requests,
            core_store_requests=sub.core_store_requests,
            completed=completed,
            ctas_total=self.app.num_ctas,
        )
        if len(self.app.kernels) > 1:
            self._collect_corun(result.extra)
        return result

    def _collect_corun(self, extra) -> None:
        """One record per co-run kernel (name, CTA counts, the cycle its
        last CTA retired: all the ANTT / STP math reads) plus the
        allocation summary."""
        dist = self.distributor
        policy = dist.policy
        extra["kernels"] = [
            {
                "kernel_id": kid,
                "name": kernel.name,
                "num_ctas": kernel.num_ctas,
                "finish_cycle": dist.finish_cycle[kid],
                "finished": dist.finish_cycle[kid] >= 0,
                "ctas_executed": dist.finished_ctas[kid],
            }
            for kid, kernel in enumerate(self.app.kernels)
        ]
        extra["multi"] = {
            "alloc_policy": policy.name,
            "num_kernels": len(self.app.kernels),
            "grants": len(dist.history),
            "finish_cycles": list(dist.finish_cycle),
            "predictor_estimates": [
                round(e, 6) for e in policy.predictor.estimate
            ] if policy.name == "preempt" else None,
        }


def simulate(
    kernel: KernelInfo,
    config: GPUConfig,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
    faults=None,
) -> SimResult:
    """Run ``kernel`` on a fresh GPU and return its :class:`SimResult`.

    ``faults`` is an optional :class:`repro.guard.faults.FaultPlan`; when
    it perturbs simulation timing the memory subsystem routes responses
    through a seeded injector (chaos testing only — such results are
    never persisted to the shared result cache).
    """
    return GPU([kernel], config, prefetcher_factory,
               faults=faults).run(max_cycles=max_cycles)


def simulate_corun(
    kernels: Sequence[KernelInfo],
    config: GPUConfig,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
    faults=None,
) -> SimResult:
    """Run ``kernels`` concurrently on one GPU under
    ``config.multi.alloc_policy`` and return the combined
    :class:`SimResult` (one record per kernel in
    ``result.extra["kernels"]``)."""
    return GPU(kernels, config, prefetcher_factory,
               faults=faults).run(max_cycles=max_cycles)
