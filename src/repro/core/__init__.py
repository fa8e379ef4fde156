"""CAPS: CTA-Aware Prefetcher and Scheduler (the paper's contribution).

* :class:`PerCTATable` — per-CTA base-address store written by each CTA's
  leading warp (Section V-B);
* :class:`DistTable` — SM-global per-PC stride store with misprediction
  throttling (Section V-B);
* :class:`CtaAwarePrefetcher` — the CAP engine generating prefetches for
  all trailing warps of all resident CTAs (Section V-C);
* the PAS scheduler lives in :class:`repro.sim.sched.PrefetchAwareTwoLevel`
  and is re-exported here;
* :mod:`repro.core.hwcost` — Table I/II storage/area/energy model.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.core.percta": ("PerCTAEntry", "PerCTATable"),
    "repro.core.dist": ("DistEntry", "DistTable"),
    "repro.core.caps": ("CtaAwarePrefetcher",),
    "repro.core.hwcost": (
        "CAPS_ACCESS_ENERGY_PJ",
        "CAPS_AREA_MM2",
        "CAPS_STATIC_POWER_UW",
        "HardwareCost",
        "caps_hardware_cost",
        "dist_entry_bytes",
        "percta_entry_bytes",
    ),
    "repro.sim.sched": ("PrefetchAwareTwoLevel",),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
