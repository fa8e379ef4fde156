"""Concurrent-kernel execution subsystem.

Runs N kernels *simultaneously* on one simulated GPU (contrast with
:mod:`repro.sim.application`, which runs kernels back-to-back with a
persistent memory hierarchy).  CTA slots are allocated between kernels
by a pluggable policy — ``spatial`` (fixed SM partition), ``leftover``
(priority fill) or ``preempt`` (CTA-boundary preemptive SRTF driven by
an online runtime predictor) — and each kernel's finish cycle is
recorded, from which ANTT / STP measure the interference.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.multi.app": (
        "PC_STRIDE",
        "MultiKernelApp",
        "virtualize_kernel",
    ),
    "repro.sim.multi.distributor": (
        "CorunAssignment",
        "MultiKernelDistributor",
    ),
    "repro.sim.multi.gpu": ("MultiGPU", "simulate_corun"),
    "repro.sim.multi.metrics": ("antt_stp",),
    "repro.sim.multi.policies": (
        "AllocPolicy",
        "LeftoverPolicy",
        "PreemptPolicy",
        "RuntimePredictor",
        "SpatialPolicy",
        "make_policy",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
