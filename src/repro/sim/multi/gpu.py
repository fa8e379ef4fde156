"""Concurrent-kernel GPU driver.

:class:`MultiGPU` is a :class:`repro.sim.gpu.GPU` whose SMs host CTAs
from several kernels at once.  Construction, the run loop with both
engine steps, memory flush, observability and the always-on guard
invariants are inherited unchanged — the subclass only swaps the CTA
distributor for a policy-driven multi-kernel one and extends the
collected :class:`SimResult` with one record per kernel: its name, CTA
count and the cycle its last CTA retired, which is all the ANTT / STP
math reads.  The SMs and the memory system keep one set of counters.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import GPUConfig
from repro.sim.gpu import GPU, SimResult
from repro.sim.kernel import KernelInfo

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

    def __init__(
        self,
        app: MultiKernelApp,
        config: GPUConfig,
        prefetcher_factory=None,
        faults=None,
    ):
        self.app = app
        super().__init__(app, config, prefetcher_factory, faults)

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
        result.extra["kernels"] = [
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
    :class:`SimResult` (one record per kernel in
    ``result.extra["kernels"]``)."""
    app = MultiKernelApp(kernels)
    gpu = MultiGPU(app, config, prefetcher_factory, faults=faults)
    return gpu.run(max_cycles=max_cycles)
