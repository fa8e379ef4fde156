"""Prefetcher interface and the no-op baseline.

A prefetcher is a passive observer of its SM's load stream.  The SM
calls:

* :meth:`Prefetcher.on_load_issue` for every demand load a warp issues
  (with the raw per-transaction addresses and their line addresses);
* :meth:`Prefetcher.on_l1_miss` for every demand line miss (the trigger
  used by next-line and macro-block prefetchers);
* CTA lifecycle hooks so per-CTA state can be recycled when the CTA slot
  is reassigned.

Hooks return :class:`PrefetchCandidate` lists; the SM enqueues them into
a bounded prefetch queue serviced only on cycles where the L1 port is
not used by a demand access — the paper's "prefetch requests access L1
data cache with lower priority than demand fetches".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, TYPE_CHECKING

from repro.config import GPUConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.warp import Warp
    from repro.sim.isa import LoadSite


@dataclass(frozen=True)
class PrefetchCandidate:
    """A prefetch the engine wants issued.

    ``target_warp_uid`` binds the prefetch to the warp whose demand it
    should cover (−1 when unknown); PAS uses the binding for eager
    wake-up when the data fills L1.
    """

    line_addr: int
    pc: int
    target_warp_uid: int = -1

    def __post_init__(self) -> None:
        if self.line_addr < 0:
            raise ValueError("prefetch address must be non-negative")


class Prefetcher:
    """Base class: observes loads, proposes prefetches.

    Subclasses override the observation hooks (:meth:`on_load_issue`,
    :meth:`on_l1_miss`) and advertise scheduler interactions through the
    ``wants_*`` class flags; the SM and scheduler consult those flags,
    never the concrete type.
    """

    name = "none"
    #: Does this engine want PAS-style leading-warp priority?  Only CAPS
    #: sets this; the SM marks one leading warp per CTA when true and the
    #: configured scheduler is PAS.
    wants_leading_warps = False
    #: Should warps bound to arriving prefetches be woken eagerly?
    wants_eager_wakeup = False
    #: Should the SM enqueue warps in interleaved group order (ORCH)?
    wants_group_interleave = False
    #: Observability hub (:class:`repro.obs.Observability`); installed by
    #: the owning SM when enabled, ``None`` otherwise.  Engines with
    #: internal tables (CAP) report table writes through it.
    obs = None

    def __init__(self, config: GPUConfig, sm_id: int):
        self.config = config
        self.sm_id = sm_id
        self.candidates_generated = 0

    # -- lifecycle -----------------------------------------------------
    def on_cta_launch(self, cta_slot: int, cta_id: int, warps: Sequence["Warp"]) -> None:
        """A CTA was launched into ``cta_slot``."""

    def on_cta_finish(self, cta_slot: int, cta_id: int) -> None:
        """The CTA in ``cta_slot`` retired."""

    # -- observation hooks ----------------------------------------------
    def on_load_issue(
        self,
        warp: "Warp",
        site: "LoadSite",
        addresses: Tuple[int, ...],
        line_addrs: Tuple[int, ...],
        iteration: int,
        now: int,
    ) -> List[PrefetchCandidate]:
        """A warp issued a load; return prefetch candidates to launch."""
        return []

    def on_l1_miss(
        self,
        warp: "Warp",
        pc: int,
        line_addr: int,
        now: int,
    ) -> List[PrefetchCandidate]:
        """A demand load missed L1; return prefetch candidates."""
        return []

    def _emit(self, cands: List[PrefetchCandidate]) -> List[PrefetchCandidate]:
        self.candidates_generated += len(cands)
        return cands


class NoPrefetcher(Prefetcher):
    """The paper's baseline: two-level scheduler, no prefetching."""

    name = "none"
