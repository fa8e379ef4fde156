"""Synthetic models of the paper's 16 benchmarks (Table IV).

Each benchmark is a parameterized kernel model: grid/CTA geometry, a
warp program (compute phases, loads, loops, stores) and per-load address
patterns that reproduce the app's published memory character — loop/load
counts from Figure 4, regular Θ(CTA)+tid·C3 strides for the regular
suite, irregular warp strides for HSP, and indirect (data-dependent)
accesses for the graph/MapReduce apps (PVR, CCL, BFS, KM).

The CUDA binaries the paper traces are substituted by these models; see
DESIGN.md §2 for why the substitution preserves the prefetcher-visible
behaviour.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.workloads.base": ("BenchmarkSpec", "Scale"),
    "repro.workloads.corun": (
        "CORUN_PAIRS",
        "DEFAULT_PAIR",
        "CorunPair",
        "corun_name",
    ),
    "repro.workloads.suite": (
        "ALIASES",
        "ALL_BENCHMARKS",
        "IRREGULAR",
        "REGULAR",
        "WORKLOADS",
        "build",
        "canonical_name",
        "get_spec",
        "normalize_benchmark",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
