"""Concurrent-kernel GPU driver.

:class:`MultiGPU` is a :class:`repro.sim.gpu.GPU` whose SMs host CTAs
from several kernels at once.  Construction, the run loop with both
engine steps, memory flush, observability and the always-on guard
invariants are inherited unchanged — the subclass only swaps the CTA
distributor for a policy-driven multi-kernel one, switches every SM
into per-kernel accounting mode (``multi = True``), and extends the
collected :class:`SimResult` with per-kernel sub-records that
conservation-sum to the global counters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.config import GPUConfig
from repro.prefetch.stats import PrefetchStats
from repro.sim.gpu import GPU, SimResult
from repro.sim.kernel import KernelInfo
from repro.sim.sm import KernelStats

from .app import MultiKernelApp
from .distributor import MultiKernelDistributor
from .policies import make_policy


class MultiGPU(GPU):
    """Whole-GPU driver for N co-resident kernels.

    ``self.kernel`` is the :class:`MultiKernelApp` itself — it exposes
    the combined ``name`` ("A+B") and summed ``num_ctas`` the inherited
    result collection, watchdog snapshots and CTA-conservation checks
    expect, so none of that plumbing needs multi-kernel special cases.
    """

    multi = True

    def __init__(
        self,
        app: MultiKernelApp,
        config: GPUConfig,
        prefetcher_factory=None,
        faults=None,
    ):
        self.app = app
        super().__init__(app, config, prefetcher_factory, faults)
        # Pre-install every kernel's traffic slice so zero-traffic
        # kernels still appear in the per-kernel records.
        self.subsystem.per_kernel = {
            k.kernel_id: [0, 0, 0, 0] for k in app.kernels
        }

    def _make_distributor(self) -> MultiKernelDistributor:
        self.policy = make_policy(self.config.multi.alloc_policy,
                                  self.app.kernels, self.config)
        return MultiKernelDistributor(self.app, self.config, self.policy)

    # ----------------------------------------------------------- launches
    def _launch_initial(self) -> None:
        for sm_id, kid, cta_id in self.distributor.initial_fill():
            self.sms[sm_id].launch_cta(cta_id, self.now,
                                       kernel=self.app.kernels[kid])

    def _on_cta_done(self, sm_id: int, cta, now: int) -> None:
        grants = self.distributor.on_cta_finish(
            sm_id, cta.kernel_id, now - cta.launch_cycle, now)
        for kid, cta_id in grants:
            self.sms[sm_id].launch_cta(cta_id, now,
                                       kernel=self.app.kernels[kid])

    # ------------------------------------------------------------ results
    def _collect(self, completed: bool, cycles: Optional[int] = None) -> SimResult:
        result = super()._collect(completed, cycles)
        dist = self.distributor
        run_cycles = result.cycles
        records: List[Dict[str, Any]] = []
        for kid, kernel in enumerate(self.app.kernels):
            ks = KernelStats()
            pk = PrefetchStats()
            for sm in self.sms:
                if kid in sm.kstats:
                    ks.merge(sm.kstats[kid])
                if kid in sm.pstats_k:
                    pk.merge(sm.pstats_k[kid])
            demand, prefetch, store, responses = self.subsystem.per_kernel[kid]
            finish = dist.finish_cycle[kid]
            rec: Dict[str, Any] = {
                "kernel_id": kid,
                "name": kernel.name,
                "num_ctas": kernel.num_ctas,
                "finish_cycle": finish,
                "finished": finish >= 0,
                # Per-kernel IPC over the kernel's own residency window
                # (launch at 0 to its last CTA's retirement).
                "ipc": (ks.instructions / finish if finish > 0
                        else (ks.instructions / run_cycles if run_cycles
                              else 0.0)),
                "l1_hit_rate": (ks.l1_hits / ks.l1_accesses
                                if ks.l1_accesses else 0.0),
                "coverage": pk.coverage(ks.demand_mem_fetches),
                "accuracy": pk.accuracy(),
                "stall_fraction": (ks.stall_mem_all / ks.active_cycles
                                   if ks.active_cycles else 0.0),
                "mem_demand_requests": demand,
                "mem_prefetch_requests": prefetch,
                "mem_store_requests": store,
                "mem_responses": responses,
                **{k: getattr(ks, k) for k in ks.__dataclass_fields__},
                **{f"pf_{k}": v for k, v in pk.as_dict().items()},
            }
            records.append(rec)
        result.extra["kernels"] = records
        result.extra["multi"] = {
            "alloc_policy": self.policy.name,
            "num_kernels": self.app.num_kernels,
            "grants": len(dist.history),
            "finish_cycles": list(dist.finish_cycle),
            "predictor_estimates": [
                round(e, 6) for e in self.policy.predictor.estimate
            ] if self.policy.name == "preempt" else None,
        }
        return result


def simulate_corun(
    kernels: Sequence[KernelInfo],
    config: GPUConfig,
    prefetcher_factory=None,
    max_cycles: Optional[int] = None,
    faults=None,
) -> SimResult:
    """Run ``kernels`` concurrently on one GPU under
    ``config.multi.alloc_policy`` and return the combined
    :class:`SimResult` (per-kernel sub-records in
    ``result.extra["kernels"]``)."""
    app = MultiKernelApp(kernels)
    gpu = MultiGPU(app, config, prefetcher_factory, faults=faults)
    return gpu.run(max_cycles=max_cycles)
