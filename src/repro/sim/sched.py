"""Warp schedulers: LRR, GTO, two-level, and the prefetch-aware PAS.

The two-level scheduler (paper baseline, [1][2]) keeps a small ready
queue (8 entries in Table III) and a pending pool.  Warps leave the ready
queue when they block on a load and re-enter (FIFO) once their data
returns.  PAS (Section V-A) extends it with: (a) a one-bit leading-warp
marker — one warp per CTA — whose holders are enqueued and scheduled
ahead of trailing warps, so every CTA's base address is discovered as
early as possible; and (b) eager wake-up: when prefetched data fills L1,
the bound warp is promoted into the ready queue, displacing a trailing
ready warp if the queue is full.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.config import GPUConfig, SchedulerKind
from repro.sim.isa import LOAD
from repro.sim.warp import Warp, WarpState


def _wants_lsu(warp: Warp) -> bool:
    return warp.cursor.kind >= LOAD


class Scheduler:
    """Common interface; concrete policies override :meth:`pick`."""

    name = "base"

    def __init__(self, config: GPUConfig):
        self.config = config
        self.warps: List[Warp] = []

    def add_warp(self, warp: Warp) -> None:
        """Register a newly launched warp with the scheduler."""
        self.warps.append(warp)

    def remove_warp(self, warp: Warp) -> None:
        """Drop a retired warp from every scheduling structure."""
        self.warps.remove(warp)

    def on_block(self, warp: Warp) -> None:
        """Warp issued a load and is now WAITING_MEM."""

    def on_unblock(self, warp: Warp) -> None:
        """Warp's outstanding load data arrived."""

    def on_prefetch_fill(self, warp: Warp) -> None:
        """Prefetched data bound to ``warp`` arrived (eager wake-up)."""

    def ready_depth(self) -> int:
        """Number of warps the scheduler considers issuable *candidates*
        right now — the ready-queue occupancy for two-level policies, the
        count of READY warps for flat ones.  Sampled by :mod:`repro.obs`;
        not used by the simulator itself."""
        return sum(1 for w in self.warps if w.state is WarpState.READY)

    def pick(self, now: int, lsu_free: bool) -> Optional[Warp]:
        """Select the warp to issue this cycle (``None`` = stall cycle).

        ``lsu_free`` is false while a replayed load/store occupies the
        LSU; warps whose next instruction needs the L1 port are then
        skipped."""
        raise NotImplementedError

    def next_issue_cycle(self) -> int:
        """Earliest cycle at which :meth:`pick` could return a warp,
        assuming no external event (memory response, CTA launch) arrives
        first — the scheduler half of the event engine's next-event
        contract (docs/architecture.md).  Returns a large sentinel when
        every resident warp is blocked.  Must never be later than the
        true next issue (conservative lower bounds are fine)."""
        nxt = 1 << 62
        for w in self.warps:
            if w.state is WarpState.READY and w.ready_at < nxt:
                nxt = w.ready_at
        return nxt

    def _can_issue(self, warp: Warp, now: int, lsu_free: bool) -> bool:
        return warp.issuable(now) and (lsu_free or not _wants_lsu(warp))


class LooseRoundRobin(Scheduler):
    """Classic LRR: rotate through all resident warps."""

    name = "lrr"

    def __init__(self, config: GPUConfig):
        super().__init__(config)
        self._ptr = 0

    def pick(self, now: int, lsu_free: bool) -> Optional[Warp]:
        """Rotate from the last issuer to the next issuable warp."""
        n = len(self.warps)
        for i in range(n):
            warp = self.warps[(self._ptr + i) % n]
            if self._can_issue(warp, now, lsu_free):
                self._ptr = (self._ptr + i + 1) % n
                return warp
        return None


class GreedyThenOldest(Scheduler):
    """GTO: stick with the current warp until it stalls, then oldest."""

    name = "gto"

    def __init__(self, config: GPUConfig):
        super().__init__(config)
        self._current: Optional[Warp] = None

    def remove_warp(self, warp: Warp) -> None:
        """Retire a warp; forget it if it was the greedy target."""
        super().remove_warp(warp)
        if self._current is warp:
            self._current = None

    def on_block(self, warp: Warp) -> None:
        """The greedy warp stalled on memory: release the stickiness."""
        if self._current is warp:
            self._current = None

    def pick(self, now: int, lsu_free: bool) -> Optional[Warp]:
        """Stay greedy on the current warp, else pick the oldest."""
        cur = self._current
        if cur is not None and self._can_issue(cur, now, lsu_free):
            return cur
        for warp in sorted(self.warps, key=lambda w: (w.launch_cycle, w.slot)):
            if self._can_issue(warp, now, lsu_free):
                self._current = warp
                return warp
        return None


class TwoLevel(Scheduler):
    """Two-level scheduler with a bounded ready queue."""

    name = "two_level"

    def __init__(self, config: GPUConfig):
        super().__init__(config)
        self.ready: List[Warp] = []
        self.eligible: Deque[Warp] = deque()
        self._ptr = 0
        #: Capacity of the inner ready queue (Table III: 8 entries).
        self.ready_size = config.ready_queue_size

    def add_warp(self, warp: Warp) -> None:
        """Launch: place the warp in the ready queue or eligible pool."""
        super().add_warp(warp)
        self._enqueue(warp)

    def _enqueue(self, warp: Warp) -> None:
        if len(self.ready) < self.ready_size:
            self.ready.append(warp)
        else:
            self.eligible.append(warp)

    def remove_warp(self, warp: Warp) -> None:
        """Retire a warp from whichever queue currently holds it."""
        super().remove_warp(warp)
        if warp in self.ready:
            self.ready.remove(warp)
        elif warp in self.eligible:
            self.eligible.remove(warp)

    def on_block(self, warp: Warp) -> None:
        """Blocked warps leave both levels (moved to the pending pool)."""
        # A blocked warp holds no queue slot at all (pushed to pending);
        # removing from *both* structures keeps the invariant even for
        # callers that block a warp straight out of the eligible pool.
        if warp in self.ready:
            self.ready.remove(warp)
        elif warp in self.eligible:
            self.eligible.remove(warp)

    def on_unblock(self, warp: Warp) -> None:
        """Returning data re-enqueues the warp at the eligible tail."""
        self.eligible.append(warp)

    def _refill(self) -> None:
        """Top the ready queue up from the eligible pool.  The issue
        path tests the loop condition itself first: the queue is mostly
        full, and that saves the call."""
        while self.eligible and len(self.ready) < self.ready_size:
            self.ready.append(self.eligible.popleft())

    def ready_depth(self) -> int:
        """Ready-queue occupancy (the paper's 8-entry inner level)."""
        return len(self.ready)

    def next_issue_cycle(self) -> int:
        """Earliest possible issue, considering the ready queue only.

        Exact for two-level policies: eligible-pool warps enter the
        ready queue only through :meth:`_refill` (called at pick time)
        or an eager wake-up — both already covered by the event engine's
        refill-then-scan and response-bound rules."""
        if len(self.ready) < self.ready_size and self.eligible:
            self._refill()
        nxt = 1 << 62
        for w in self.ready:
            if w.ready_at < nxt:
                nxt = w.ready_at
        return nxt

    def pick(self, now: int, lsu_free: bool) -> Optional[Warp]:
        """Refill the ready queue from the pool, then round-robin it."""
        if len(self.ready) < self.ready_size and self.eligible:
            self._refill()
        ready = self.ready
        n = len(ready)
        if n == 0:
            return None
        ptr = self._ptr % n
        READY = WarpState.READY
        for i in range(n):
            j = ptr + i
            if j >= n:
                j -= n
            warp = ready[j]
            if warp.state is READY and warp.ready_at <= now:
                if not lsu_free and warp.cursor.kind >= LOAD:
                    continue
                j += 1
                self._ptr = j if j < n else 0
                return warp
        return None


class PrefetchAwareTwoLevel(TwoLevel):
    """PAS: two-level + leading-warp enqueue priority + eager wake-up.

    Figure 8b: the ready queue is filled with one leading warp per CTA
    *first*, then trailing warps.  We implement that as an enqueue-order
    policy — a warp carrying the (still armed) leading marker enters the
    ready queue or the eligible pool ahead of trailing warps — while the
    issue rotation itself stays the plain two-level round-robin.  The
    marker is disarmed by the SM once the leader has issued its targeted
    loads (its base-discovery job is done), so leaders do not perpetually
    preempt trailing warps.
    """

    name = "pas"

    def _enqueue(self, warp: Warp) -> None:
        if warp.leading:
            if len(self.ready) < self.ready_size:
                lead_end = sum(1 for w in self.ready if w.leading)
                self.ready.insert(lead_end, warp)
            else:
                self.eligible.appendleft(warp)
        else:
            super()._enqueue(warp)

    def on_unblock(self, warp: Warp) -> None:
        """Leading warps re-enter at the head of the eligible pool so
        base-address discovery resumes before trailing progress."""
        if warp.leading:
            self.eligible.appendleft(warp)
        else:
            self.eligible.append(warp)

    def on_prefetch_fill(self, warp: Warp) -> None:
        """Eager wake-up: promote the bound warp into the ready queue,
        displacing a trailing ready warp when the queue is full."""
        if warp.finished or warp.state is WarpState.WAITING_MEM:
            return
        if warp in self.ready or warp not in self.eligible:
            return
        self.eligible.remove(warp)
        if len(self.ready) >= self.ready_size:
            victim_idx = None
            for i in range(len(self.ready) - 1, -1, -1):
                if not self.ready[i].leading and self.ready[i] is not warp:
                    victim_idx = i
                    break
            if victim_idx is None:
                self.eligible.appendleft(warp)
                return
            victim = self.ready.pop(victim_idx)
            self.eligible.appendleft(victim)
        self.ready.append(warp)


class PrefetchAwareLRR(LooseRoundRobin):
    """LRR + leading-warp priority (paper Section V-A's LRR variant).

    While a warp's leading marker is armed it wins the pick over the
    normal rotation, so every CTA's base address is computed as early as
    LRR allows; once disarmed the warp rejoins the plain rotation.
    """

    name = "pas_lrr"

    def pick(self, now: int, lsu_free: bool) -> Optional[Warp]:
        """Issue any armed leading warp first, else plain LRR."""
        for warp in self.warps:
            if warp.leading and self._can_issue(warp, now, lsu_free):
                return warp
        return super().pick(now, lsu_free)


class PrefetchAwareGTO(GreedyThenOldest):
    """GTO + leading-warp priority (paper Section V-A's GTO variant):
    leading warps are greedily scheduled until they compute their CTA's
    base addresses, then trailing warps continue under plain GTO."""

    name = "pas_gto"

    def pick(self, now: int, lsu_free: bool) -> Optional[Warp]:
        """Greedily run leading warps to base discovery, else plain GTO."""
        cur = self._current
        if cur is not None and cur.leading and self._can_issue(cur, now, lsu_free):
            return cur
        leaders = [w for w in self.warps if w.leading]
        for warp in sorted(leaders, key=lambda w: (w.launch_cycle, w.slot)):
            if self._can_issue(warp, now, lsu_free):
                self._current = warp
                return warp
        return super().pick(now, lsu_free)


def make_scheduler(config: GPUConfig) -> Scheduler:
    """Instantiate the scheduler selected by ``config.scheduler``."""
    kind = config.scheduler
    if kind is SchedulerKind.LRR:
        return LooseRoundRobin(config)
    if kind is SchedulerKind.GTO:
        return GreedyThenOldest(config)
    if kind is SchedulerKind.TWO_LEVEL:
        return TwoLevel(config)
    if kind is SchedulerKind.PAS:
        return PrefetchAwareTwoLevel(config)
    if kind is SchedulerKind.PAS_LRR:
        return PrefetchAwareLRR(config)
    if kind is SchedulerKind.PAS_GTO:
        return PrefetchAwareGTO(config)
    raise ValueError(f"unknown scheduler kind {kind!r}")
