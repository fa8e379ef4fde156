"""Simplified cycle-level SIMT GPU simulator substrate.

This package models the pieces of GPGPU-Sim that the paper's mechanisms
exercise: warp instruction streams (:mod:`repro.sim.isa`), kernel/CTA
geometry (:mod:`repro.sim.kernel`), demand-driven CTA distribution and
its co-run allocation policies (:mod:`repro.sim.cta`), warp schedulers
(:mod:`repro.sim.sched`), memory coalescing (:mod:`repro.sim.coalesce`),
the SM issue pipeline (:mod:`repro.sim.sm`) and the top-level GPU
(:mod:`repro.sim.gpu`), which runs a single kernel as a launch of one.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.isa": (
        "AddressContext",
        "ComputeOp",
        "Instr",
        "InstrKind",
        "LoadOp",
        "LoadSite",
        "LoopOp",
        "StoreOp",
        "WarpProgram",
    ),
    "repro.sim.kernel": ("KernelInfo",),
    "repro.sim.cta": ("CTADistributor",),
    "repro.sim.gpu": ("GPU", "simulate"),
    "repro.result": ("SimResult",),
    "repro.sim.trace": (
        "LoadRecord",
        "LoadTracer",
        "TraceResult",
        "trace_kernel",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
