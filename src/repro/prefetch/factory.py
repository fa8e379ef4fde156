"""Prefetcher registry (Figure 10's legend) and config helpers."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.config import GPUConfig, SchedulerKind
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.prefetch.base import Prefetcher


def _registry() -> Dict[str, type]:
    # Imported on use: the names below (PREFETCHERS, the scheduler
    # pairing) are what parsers and cache keys need, without the engines.
    from repro.core.caps import CtaAwarePrefetcher
    from repro.prefetch.base import NoPrefetcher
    from repro.prefetch.inter import InterWarpStride
    from repro.prefetch.intra import IntraWarpStride
    from repro.prefetch.lap import LocalityAware
    from repro.prefetch.mta import ManyThreadAware
    from repro.prefetch.nlp import NextLine
    from repro.prefetch.orch import Orchestrated

    return {
        "none": NoPrefetcher,
        "intra": IntraWarpStride,
        "inter": InterWarpStride,
        "mta": ManyThreadAware,
        "nlp": NextLine,
        "lap": LocalityAware,
        "orch": Orchestrated,
        "caps": CtaAwarePrefetcher,
    }


#: Evaluation order used throughout the paper's figures.
PREFETCHERS = ("intra", "inter", "mta", "nlp", "lap", "orch", "caps")


def make_prefetcher(name: str) -> Callable[[GPUConfig, int], Prefetcher]:
    """Factory of per-SM prefetcher instances for :func:`repro.sim.simulate`."""
    reg = _registry()
    if name not in reg:
        raise ConfigError(
            f"unknown prefetcher {name!r}; choose from {sorted(reg)}"
        )
    cls = reg[name]
    return lambda config, sm_id: cls(config, sm_id)


def default_scheduler_for(name: str) -> SchedulerKind:
    """The scheduler each engine is evaluated with in Figure 10.

    CAPS pairs with PAS (its prefetch-aware scheduler); every other
    engine — and the no-prefetch baseline — runs on the plain two-level
    scheduler.
    """
    if name == "caps":
        return SchedulerKind.PAS
    return SchedulerKind.TWO_LEVEL
