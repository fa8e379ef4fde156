"""CAPS reproduction: CTA-Aware Prefetching and Scheduling for GPU.

Reproduces Koo et al., *CTA-Aware Prefetching and Scheduling for GPU*,
IPDPS 2018, on a simplified cycle-level SIMT GPU simulator.

Quickstart::

    from repro import fermi_config, simulate, make_prefetcher
    from repro.workloads import build

    kernel = build("MM")
    base = simulate(kernel, fermi_config())
    caps = simulate(
        kernel,
        fermi_config().with_scheduler(SchedulerKind.PAS),
        make_prefetcher("caps"),
    )
    print(caps.ipc / base.ipc)

See :mod:`repro.analysis` for the experiment driver that regenerates the
paper's tables and figures.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_EXPORTS = {
    "repro.config": (
        "CacheConfig",
        "CTAResources",
        "DRAMConfig",
        "GPUConfig",
        "InterconnectConfig",
        "ObsConfig",
        "PrefetcherConfig",
        "SchedulerKind",
        "fermi_config",
        "occupancy",
        "small_config",
        "test_config",
    ),
    "repro.sim.gpu": ("GPU", "simulate"),
    "repro.sim.kernel": ("KernelInfo",),
    "repro.result": ("SimResult",),
    "repro.sim.trace": ("trace_kernel",),
    "repro.prefetch.factory": (
        "PREFETCHERS",
        "make_prefetcher",
        "default_scheduler_for",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
__all__.append("__version__")
