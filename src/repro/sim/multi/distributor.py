"""CTA distribution across SMs for concurrent-kernel runs.

The single-kernel :class:`repro.sim.cta.CTADistributor` tracks one grid;
this distributor tracks N grids at once and delegates the *which kernel*
decision to an :class:`repro.sim.multi.policies.AllocPolicy`.  CTA ids
stay kernel-local (0..num_ctas-1 within each grid) because address
generation threads ``cta_id`` through each kernel's own pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import GPUConfig

from .app import MultiKernelApp
from .policies import AllocPolicy


@dataclass(frozen=True)
class CorunAssignment:
    """One CTA grant: kernel ``kernel_id``'s CTA ``cta_id`` to ``sm_id``."""

    kernel_id: int
    cta_id: int
    sm_id: int
    cycle: int


class MultiKernelDistributor:
    """Issues CTAs from N concurrent grids under an allocation policy.

    Admission of kernel ``k`` on SM ``s`` requires all of:

    * ``k`` still has unissued CTAs;
    * ``s`` has a free CTA slot (total CTAs < ``max_ctas_per_sm``);
    * ``s`` can host another CTA of ``k`` under its per-kernel occupancy
      cap (``min(config.max_ctas_per_sm, kernel.max_ctas_per_sm())``,
      the same resource bound the single-kernel path applies);
    * ``s`` has warp contexts left for a full CTA of ``k``
      (resident warps + ``warps_per_cta`` <= ``max_warps_per_sm``) —
      the binding constraint when co-runners have unequal CTA shapes.
    """

    def __init__(self, app: MultiKernelApp, config: GPUConfig,
                 policy: AllocPolicy):
        self.app = app
        self.config = config
        self.policy = policy
        self.num_sms = config.num_sms
        k = app.num_kernels
        self.next_cta: List[int] = [0] * k
        self.finished_ctas: List[int] = [0] * k
        #: active[sm_id][kid] — CTAs of each kernel resident on each SM.
        self.active: List[List[int]] = [[0] * k for _ in range(self.num_sms)]
        self.resident_warps: List[int] = [0] * self.num_sms
        self.kernel_cta_limit: List[int] = [
            min(config.max_ctas_per_sm, kern.max_ctas_per_sm(config))
            for kern in app.kernels
        ]
        #: Cycle each kernel's last CTA retired (-1 while unfinished).
        self.finish_cycle: List[int] = [-1] * k
        self.history: List[CorunAssignment] = []
        self._filled = False

    # ------------------------------------------------------------- state
    @property
    def remaining(self) -> int:
        """Unissued CTAs across all kernels (watchdog/guard surface)."""
        return sum(k.num_ctas - n
                   for k, n in zip(self.app.kernels, self.next_cta))

    def active_ctas(self, kid: int) -> int:
        """CTAs of kernel ``kid`` currently resident across all SMs."""
        return sum(row[kid] for row in self.active)

    def _admissible(self, sm_id: int, kid: int) -> bool:
        kernel = self.app.kernels[kid]
        row = self.active[sm_id]
        return (
            self.next_cta[kid] < kernel.num_ctas
            and sum(row) < self.config.max_ctas_per_sm
            and row[kid] < self.kernel_cta_limit[kid]
            and (self.resident_warps[sm_id] + kernel.warps_per_cta
                 <= self.config.max_warps_per_sm)
        )

    # ------------------------------------------------------------ grants
    def _grant(self, sm_id: int, now: int) -> Optional[Tuple[int, int]]:
        """Offer one free slot on ``sm_id``; returns (kid, cta_id) or None."""
        for kid in self.policy.order(sm_id, self):
            if self._admissible(sm_id, kid):
                cta_id = self.next_cta[kid]
                self.next_cta[kid] += 1
                self.active[sm_id][kid] += 1
                self.resident_warps[sm_id] += \
                    self.app.kernels[kid].warps_per_cta
                self.history.append(
                    CorunAssignment(kid, cta_id, sm_id, now))
                return kid, cta_id
        return None

    def initial_fill(self) -> List[Tuple[int, int, int]]:
        """Initial wave at cycle 0: rounds of one grant per SM.

        Mirrors the single-kernel round-robin fill (one CTA per SM per
        round) so no SM races ahead, but each grant is policy-ordered.
        Returns ``(sm_id, kid, cta_id)`` launch tuples.
        """
        if self._filled:
            raise RuntimeError("initial_fill() may only be called once")
        self._filled = True
        launches: List[Tuple[int, int, int]] = []
        progress = True
        while progress:
            progress = False
            for sm_id in range(self.num_sms):
                got = self._grant(sm_id, 0)
                if got is not None:
                    launches.append((sm_id, got[0], got[1]))
                    progress = True
        return launches

    def on_cta_finish(self, sm_id: int, kid: int, duration: int,
                      now: int) -> List[Tuple[int, int]]:
        """Retire one CTA of kernel ``kid`` on ``sm_id``; refill the SM.

        Returns every ``(kid, cta_id)`` newly granted to this SM — one
        retiring CTA of a wide kernel can free room for *several* CTAs
        of a narrower co-runner, so refill loops until the SM is full or
        nothing is admissible.
        """
        self.active[sm_id][kid] -= 1
        self.resident_warps[sm_id] -= self.app.kernels[kid].warps_per_cta
        self.finished_ctas[kid] += 1
        self.policy.observe_cta(kid, duration)
        if self.finished_ctas[kid] == self.app.kernels[kid].num_ctas:
            self.finish_cycle[kid] = now
        grants: List[Tuple[int, int]] = []
        while True:
            got = self._grant(sm_id, now)
            if got is None:
                return grants
            grants.append(got)
