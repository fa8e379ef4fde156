"""Concurrent-kernel execution: what a co-run adds to a launch.

Runs N kernels *simultaneously* on one simulated GPU.  The driver
(:class:`repro.sim.gpu.GPU`) and the CTA distributor with its
allocation policies (:mod:`repro.sim.cta`) are the ones every run
uses; this package holds only the co-run specifics: kernel
virtualization (disjoint pcs and address spaces), the
:func:`simulate_corun` entry point, and the ANTT / STP interference
metrics computed from each kernel's recorded finish cycle.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sim.multi.app": (
        "PC_STRIDE",
        "MultiKernelApp",
        "virtualize_kernel",
    ),
    "repro.sim.gpu": ("simulate_corun",),
    "repro.sim.multi.metrics": ("antt_stp",),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
