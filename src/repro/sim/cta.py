"""CTA distribution across SMs (paper Section II-B, Figure 3).

CTAs are handed to SMs one at a time in round-robin order until every SM
holds its concurrent-CTA limit; afterwards assignment is purely
demand-driven — a new CTA goes to whichever SM finishes one first.  This
is why consecutive CTAs rarely share an SM, and why inter-CTA strides
observed inside one SM are irregular: the key motivation for per-CTA base
address discovery.

A launch holds one or more kernels.  When several share the GPU, an
allocation policy (``MultiConfig.alloc_policy``) answers which kernel's
next CTA a free slot takes:

``spatial``
    Static SM partitioning.  Each SM is owned by exactly one kernel for
    the whole run (split point from ``MultiConfig.spatial_split``); an
    SM whose kernel has drained simply idles.  This is the classic
    spatial-multitasking baseline — no interference on the SM, full
    interference in the shared L2/DRAM.

``leftover``
    Greedy fill in kernel-id order.  Kernel 0 takes every slot it can;
    later kernels absorb the leftover capacity (free CTA slots and warp
    contexts kernel 0 cannot use).

``preempt``
    CTA-boundary preemptive shortest-remaining-time-first.  An online
    structural runtime predictor (in the spirit of Pai et al.'s model
    of kernel runtime from grid structure) estimates each kernel's
    remaining runtime; every free slot goes to the kernel predicted to
    finish soonest.  Running CTAs are never killed; the kernel holding
    the SM simply stops receiving new slots.

With one kernel every policy's preference order is ``(0,)`` and the
admission rules reduce to the round-robin fill and one-for-one refill
above, so the policy cannot change a single-kernel run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import ALLOC_POLICIES, GPUConfig
from repro.errors import ConfigError
from repro.sim.kernel import KernelInfo


@dataclass(frozen=True)
class CTAAssignment:
    """One CTA grant: kernel ``kernel_id``'s CTA ``cta_id`` to ``sm_id``."""

    kernel_id: int
    cta_id: int
    sm_id: int
    cycle: int


# ------------------------------------------------------------- policies
class RuntimePredictor:
    """Online per-kernel CTA-runtime estimator.

    Before a kernel has retired any CTA, its estimate is a *structural
    prior*: dynamic instructions per CTA times a configurable
    cycles-per-instruction prior (``MultiConfig.predictor_cpi_prior``).
    Every retired CTA then refines the estimate with an exponential
    moving average over observed CTA durations
    (``MultiConfig.predictor_ema``).  Plain floats are safe for
    engine bit-identity because both engines observe the identical
    sequence of (kid, duration) events and the arithmetic is
    deterministic.
    """

    def __init__(self, kernels, config: GPUConfig):
        mc = config.multi
        self._ema = mc.predictor_ema
        self.observed: List[int] = [0 for _ in kernels]
        self.estimate: List[float] = [
            max(1.0, k.warps_per_cta * k.program.dynamic_instruction_count()
                * mc.predictor_cpi_prior)
            for k in kernels
        ]

    def observe(self, kid: int, duration: int) -> None:
        """Fold one retired CTA's duration into kernel ``kid``'s estimate."""
        if self.observed[kid] == 0:
            self.estimate[kid] = float(max(1, duration))
        else:
            a = self._ema
            self.estimate[kid] = (a * max(1, duration)
                                  + (1.0 - a) * self.estimate[kid])
        self.observed[kid] += 1


class AllocPolicy:
    """Base inter-kernel allocation policy."""

    name = "base"

    def __init__(self, kernels, config: GPUConfig):
        self.kernels = kernels
        self.config = config

    def order(self, sm_id: int, dist) -> Sequence[int]:
        """Kernel ids in preference order for a free slot on ``sm_id``.

        ``dist`` is the :class:`CTADistributor`, exposing live occupancy
        (``active``, ``finished_ctas``, ``next_cta``).
        """
        raise NotImplementedError

    def observe_cta(self, kid: int, duration: int) -> None:
        """Hook: a CTA of kernel ``kid`` retired after ``duration`` cycles."""


class SpatialPolicy(AllocPolicy):
    """Fixed SM partition: SM ``s`` only ever runs ``self.owner[s]``."""

    name = "spatial"

    def __init__(self, kernels, config: GPUConfig):
        super().__init__(kernels, config)
        k = len(kernels)
        n = config.num_sms
        if n < k:
            raise ConfigError(
                f"spatial allocation needs at least one SM per kernel "
                f"(num_sms={n}, kernels={k})"
            )
        self.owner: List[int] = [0] * n
        if k > 1:
            # Kernel 0 gets round(split * n) SMs (clamped so every
            # kernel keeps at least one); the rest are divided evenly,
            # in SM order, among kernels 1..k-1.
            n0 = int(round(config.multi.spatial_split * n))
            n0 = max(1, min(n - (k - 1), n0))
            rest = n - n0
            for i in range(n0, n):
                self.owner[i] = 1 + (i - n0) * (k - 1) // rest

    def order(self, sm_id: int, dist) -> Sequence[int]:
        return (self.owner[sm_id],)


class LeftoverPolicy(AllocPolicy):
    """Kernel-id priority: later kernels fill slots earlier ones can't."""

    name = "leftover"

    def order(self, sm_id: int, dist) -> Sequence[int]:
        return range(len(self.kernels))


class PreemptPolicy(AllocPolicy):
    """CTA-boundary preemptive SRTF driven by :class:`RuntimePredictor`.

    Predicted remaining runtime of kernel ``k`` is::

        estimate[k] * ctas_left(k) / max(1, active_ctas(k))

    i.e. per-CTA cost times outstanding CTAs, divided by the kernel's
    current CTA-level parallelism.  Free slots are offered to kernels in
    ascending predicted-remaining order with a deterministic kernel-id
    tie-break, so the short kernel preempts the long one's refill stream
    at every CTA boundary and exits quickly.
    """

    name = "preempt"

    def __init__(self, kernels, config: GPUConfig):
        super().__init__(kernels, config)
        self.predictor = RuntimePredictor(kernels, config)

    def observe_cta(self, kid: int, duration: int) -> None:
        self.predictor.observe(kid, duration)

    def order(self, sm_id: int, dist) -> Sequence[int]:
        scored: List[Tuple[float, int]] = []
        for kid, kernel in enumerate(self.kernels):
            left = kernel.num_ctas - dist.finished_ctas[kid]
            if left <= 0:
                continue
            active = dist.active_ctas(kid)
            remaining = self.predictor.estimate[kid] * left / max(1, active)
            scored.append((remaining, kid))
        scored.sort()
        return [kid for _, kid in scored]


_POLICIES = {
    SpatialPolicy.name: SpatialPolicy,
    LeftoverPolicy.name: LeftoverPolicy,
    PreemptPolicy.name: PreemptPolicy,
}
assert set(_POLICIES) == set(ALLOC_POLICIES)


def make_policy(name: str, kernels, config: GPUConfig) -> AllocPolicy:
    """Instantiate allocation policy ``name`` (see ``ALLOC_POLICIES``)."""
    try:
        cls = _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown allocation policy {name!r}; "
            f"expected one of {', '.join(ALLOC_POLICIES)}"
        ) from None
    return cls(kernels, config)


# ---------------------------------------------------------- distributor
class CTADistributor:
    """Issues the CTAs of a launch's kernels to SMs; records the history.

    CTA ids stay kernel-local (0..num_ctas-1 within each grid) because
    address generation threads ``cta_id`` through each kernel's own
    pattern.  Admission of kernel ``k`` on SM ``s`` requires all of:

    * ``k`` still has unissued CTAs;
    * ``s`` has a free CTA slot (total CTAs < ``max_ctas_per_sm``);
    * ``s`` can host another CTA of ``k`` under its occupancy cap
      (``min(config.max_ctas_per_sm, kernel.max_ctas_per_sm())``);
    * ``s`` has warp contexts left for a full CTA of ``k``
      (resident warps + ``warps_per_cta`` <= ``max_warps_per_sm``) —
      the binding constraint when co-runners have unequal CTA shapes.

    Which admissible kernel a slot takes is the policy
    ``config.multi.alloc_policy`` names.
    """

    def __init__(self, kernels: Sequence[KernelInfo], config: GPUConfig):
        self.kernels = kernels
        self.config = config
        self.policy = make_policy(config.multi.alloc_policy, kernels, config)
        self.num_sms = config.num_sms
        k = len(kernels)
        self.next_cta: List[int] = [0] * k
        self.finished_ctas: List[int] = [0] * k
        #: active[sm_id][kid] — CTAs of each kernel resident on each SM.
        self.active: List[List[int]] = [[0] * k for _ in range(self.num_sms)]
        self.resident_warps: List[int] = [0] * self.num_sms
        self.kernel_cta_limit: List[int] = [
            min(config.max_ctas_per_sm, kern.max_ctas_per_sm(config))
            for kern in kernels
        ]
        #: Cycle each kernel's last CTA retired (-1 while unfinished).
        self.finish_cycle: List[int] = [-1] * k
        self.history: List[CTAAssignment] = []
        self._filled = False

    @property
    def remaining(self) -> int:
        """Unissued CTAs across all kernels."""
        return sum(k.num_ctas - n for k, n in zip(self.kernels, self.next_cta))

    def active_ctas(self, kid: int) -> int:
        """CTAs of kernel ``kid`` currently resident across all SMs."""
        return sum(row[kid] for row in self.active)

    def _admissible(self, sm_id: int, kid: int) -> bool:
        kernel = self.kernels[kid]
        row = self.active[sm_id]
        return (
            self.next_cta[kid] < kernel.num_ctas
            and sum(row) < self.config.max_ctas_per_sm
            and row[kid] < self.kernel_cta_limit[kid]
            and (self.resident_warps[sm_id] + kernel.warps_per_cta
                 <= self.config.max_warps_per_sm)
        )

    def _grant(self, sm_id: int, now: int) -> Optional[Tuple[int, int]]:
        """Offer one free slot on ``sm_id``; returns (kid, cta_id) or None."""
        for kid in self.policy.order(sm_id, self):
            if self._admissible(sm_id, kid):
                cta_id = self.next_cta[kid]
                self.next_cta[kid] += 1
                self.active[sm_id][kid] += 1
                self.resident_warps[sm_id] += self.kernels[kid].warps_per_cta
                self.history.append(CTAAssignment(kid, cta_id, sm_id, now))
                return kid, cta_id
        return None

    def initial_fill(self) -> List[Tuple[int, int, int]]:
        """Launch wave at cycle 0: rounds of one grant per SM, until no
        SM admits another CTA.  Returns ``(sm_id, kid, cta_id)`` in
        issue order."""
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
                    launches.append((sm_id, *got))
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
        if not 0 <= sm_id < self.num_sms:
            raise IndexError(f"sm_id {sm_id} out of range")
        if self.active[sm_id][kid] <= 0:
            raise RuntimeError(
                f"SM {sm_id} has no active CTA of kernel {kid} to finish")
        self.active[sm_id][kid] -= 1
        self.resident_warps[sm_id] -= self.kernels[kid].warps_per_cta
        self.finished_ctas[kid] += 1
        self.policy.observe_cta(kid, duration)
        if self.finished_ctas[kid] == self.kernels[kid].num_ctas:
            self.finish_cycle[kid] = now
        grants: List[Tuple[int, int]] = []
        while True:
            got = self._grant(sm_id, now)
            if got is None:
                return grants
            grants.append(got)
