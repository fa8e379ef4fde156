"""Prefetch engines evaluated in the paper (Figure 10's legend).

``NONE`` (baseline, no prefetch), ``INTRA`` (intra-warp stride, §III-A),
``INTER`` (inter-warp stride, §III-B), ``MTA`` (many-thread aware [9]),
``NLP`` (next-line, §III-C), ``LAP`` (locality-aware macro-block [17]),
``ORCH`` (LAP + prefetch-aware scheduling groups [17]) and ``CAPS``
(this paper; implemented in :mod:`repro.core`).
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.prefetch.base": ("Prefetcher", "PrefetchCandidate", "NoPrefetcher"),
    "repro.prefetch.stats": ("PrefetchStats",),
    "repro.prefetch.intra": ("IntraWarpStride",),
    "repro.prefetch.inter": ("InterWarpStride",),
    "repro.prefetch.mta": ("ManyThreadAware",),
    "repro.prefetch.nlp": ("NextLine",),
    "repro.prefetch.lap": ("LocalityAware",),
    "repro.prefetch.orch": ("Orchestrated",),
    "repro.prefetch.factory": ("PREFETCHERS", "make_prefetcher"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
