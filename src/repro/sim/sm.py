"""Streaming multiprocessor: issue pipeline, L1D/LSU, prefetch port.

Per cycle an SM:

1. completes L1-hit load pieces whose hit latency elapsed;
2. drains its miss queue into the interconnect;
3. replays a load whose line transactions previously failed reservation
   (MSHR or miss-queue full) — the pipeline-stall mechanism behind the
   paper's bursty-miss congestion;
4. lets the warp scheduler issue one instruction;
5. services one queued prefetch candidate if the L1 port is idle
   (prefetches have strictly lower priority than demand accesses).

Warps issuing a load block until every coalesced line transaction of the
load has data (an L1 hit completes after the hit latency; a miss when the
fill returns).  The two-level scheduler moves blocked warps to its
pending pool, matching the paper's baseline.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.config import GPUConfig
from repro.mem.cache import Cache
from repro.mem.request import Access, MemoryRequest
from repro.mem.subsystem import MemorySubsystem
from repro.prefetch.base import Prefetcher, PrefetchCandidate
from repro.prefetch.stats import PrefetchStats
from repro.result import SMStats
from repro.sim.coalesce import coalesce
from repro.sim.isa import ALU, EXIT, LOAD, AddressContext, LoadSite
from repro.sim.kernel import KernelInfo
from repro.sim.sched import make_scheduler
from repro.sim.warp import Warp, WarpState

#: Maximum queued prefetch candidates per SM; overflow drops the oldest.
PREFETCH_QUEUE_DEPTH = 128
#: L1 miss-queue entries drained into the interconnect per cycle.
MISS_QUEUE_DRAIN = 2
#: Store issue latency (cycles until the issuing warp may issue again).
STORE_LATENCY = 4

#: Concurrent-kernel address virtualization: kernel ``k`` of a co-run
#: lives at byte offset ``k << KERNEL_ADDR_SHIFT`` (see
#: :func:`repro.sim.multi.virtualize_kernel`), so any line address maps
#: back to its owning kernel with a single shift.  Single-kernel runs
#: use offset 0 and always resolve to kernel 0.
KERNEL_ADDR_SHIFT = 44


@dataclass
class CTAState:
    slot: int
    cta_id: int
    warps: List[Warp]
    unfinished: int
    #: Owning kernel (multi-kernel runs; equals ``SM.kernel`` otherwise).
    kernel: Optional[KernelInfo] = None
    kernel_id: int = 0
    launch_cycle: int = 0


@dataclass
class KernelStats:
    """Per-kernel slice of an SM's counters (concurrent-kernel runs).

    Maintained only when the SM runs in multi-kernel mode; the guard
    layer asserts the slices conservation-sum to the global counters
    (instructions, loads/stores, L1, MSHR, CTAs — the cycle-overlap
    counters ``active/issue/stall_*`` are per-kernel perspectives and
    legitimately exceed the wall-clock totals).
    """

    instructions: int = 0
    loads_issued: int = 0
    stores_issued: int = 0
    demand_l1_accesses: int = 0
    demand_mem_fetches: int = 0
    l1_accesses: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    mshr_allocated: int = 0
    mshr_released: int = 0
    issue_cycles: int = 0
    active_cycles: int = 0
    stall_mem_all: int = 0
    stall_mem_partial: int = 0
    stall_other: int = 0
    ctas_executed: int = 0

    def merge(self, other: "KernelStats") -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))


@dataclass
class _InflightPrefetch:
    """An issued prefetch whose line has not filled L1 yet.

    Prefetches occupy their own in-flight buffer (the prefetch request
    generator's bookkeeping) rather than demand MSHRs, so a burst of
    demand misses can never be blocked by outstanding prefetches nor
    vice versa.  Demand misses to an in-flight prefetched line attach as
    ``waiters`` (and promote the request to demand priority downstream).
    """

    issue_cycle: int
    pc: int
    target_warp_uid: int
    req: MemoryRequest
    waiters: List[int] = field(default_factory=list)


@dataclass
class _Replay:
    """A load (or store) stalled mid-way through its line transactions."""

    warp: Optional[Warp]
    pc: int
    remaining: List[int]
    is_store: bool
    iteration: int


class SM:
    """One streaming multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        kernel: KernelInfo,
        prefetcher: Prefetcher,
        subsystem: MemorySubsystem,
        on_cta_done: Callable,
        obs=None,
        multi: bool = False,
    ):
        self.sm_id = sm_id
        self.config = config
        self.kernel = kernel
        self.prefetcher = prefetcher
        self.subsystem = subsystem
        self.on_cta_done = on_cta_done
        #: Observability hub (:class:`repro.obs.Observability`) or None.
        #: None is the fast path: every hook site is a bare attribute test.
        self.obs = obs
        prefetcher.obs = obs

        self.l1 = Cache(config.l1d, name=f"l1d.{sm_id}")
        self.scheduler = make_scheduler(config)
        self.stats = SMStats()
        self.pstats = PrefetchStats()

        self.miss_queue: Deque[MemoryRequest] = deque()
        self.miss_queue_depth = config.l1d.miss_queue_depth
        # Write-through stores drain through their own buffer so bursts
        # of writes neither block demand misses nor starve the prefetch
        # path.
        self.store_queue: Deque[MemoryRequest] = deque()
        self.store_queue_depth = 2 * config.l1d.miss_queue_depth
        self.prefetch_queue: Deque[PrefetchCandidate] = deque()
        self.prefetch_miss_queue: Deque[MemoryRequest] = deque()
        # Pollution feedback: number of prefetched-but-unused lines
        # resident in L1.  The prefetch port defers when more than a
        # quarter of the cache holds such lines, which naturally
        # delays too-early prefetches until consumption catches up.
        self.unused_prefetched_resident = 0
        self._prefetch_resident_limit = config.l1d.num_lines // 4
        self.prefetch_miss_queue_depth = config.prefetch.prefetch_miss_queue_depth
        self.prefetch_inflight_limit = config.prefetch.prefetch_inflight_entries
        self._queued_prefetch_lines: set = set()
        self._hit_heap: List[Tuple[int, int]] = []  # (ready_cycle, warp_uid)
        self._hit_seq = 0
        # Event engine bookkeeping: cycles below this were batch-executed
        # (or batch-accounted) by repro.sim.fastcore; external events
        # (responses, CTA launches) reset it so the SM re-enters the
        # per-cycle path at once.  The cycle engine never reads it.
        self._skip_until = 0
        # Open lazy stall span: first skipped cycle (-1 = none) and
        # whether each skipped cycle also charged a failed replay
        # attempt.  Settled by _settle_span when the span ends.
        self._span_from = -1
        self._span_replay = False
        # A "hard" issue span is response-tolerant: its pre-executed
        # issues provably cannot be altered by a memory response (full
        # ready queue, no eager wake-up: off, or no prefetch of this SM
        # in flight), so responses must NOT reset _skip_until mid-span.
        self._span_hard = False
        self._hard_span_ok = not (
            prefetcher.wants_eager_wakeup and config.prefetch.eager_wakeup
        )
        self.replay: Optional[_Replay] = None
        self._inflight_prefetch: Dict[int, _InflightPrefetch] = {}

        self.cta_slots: List[Optional[CTAState]] = [None] * config.max_ctas_per_sm
        self.warps_by_uid: Dict[int, Warp] = {}
        self.warp_by_slot: Dict[int, Warp] = {}
        self._next_warp_slot = 0
        self.unfinished_warps = 0
        self.waiting_mem_warps = 0

        self._mark_leading = (
            config.scheduler.prefetch_aware or prefetcher.wants_leading_warps
        )
        #: kernel id -> static load sites, filled as kernels launch CTAs.
        self._kernel_load_sites: Dict[int, int] = {}

        # Concurrent-kernel accounting (all dormant when ``multi`` is
        # False — the single-kernel hot path pays one bool test per
        # site).  ``kstats``/``pstats_k`` slice the global counters per
        # kernel id; ``k_unfinished``/``k_waiting`` mirror the SM-wide
        # warp counts per kernel for the per-kernel stall classifier.
        self._multi = multi
        self.kstats: Dict[int, KernelStats] = {}
        self.pstats_k: Dict[int, PrefetchStats] = {}
        self.k_unfinished: Dict[int, int] = {}
        self.k_waiting: Dict[int, int] = {}
        self._issued_kid = -1

    # ------------------------------------------------------------- CTA launch
    def free_slot(self) -> Optional[int]:
        for i, s in enumerate(self.cta_slots):
            if s is None:
                return i
        return None

    def launch_cta(self, cta_id: int, now: int,
                   kernel: Optional[KernelInfo] = None) -> None:
        if self._span_from >= 0:  # defensive: launches reach a lazy-span
            self._settle_span(now)  # SM only via its own cycle
        if not self._span_hard:
            # A response-driven launch lands new warps in the eligible
            # pool (ready queue full by the hard-span precondition), so
            # a hard issue span keeps running.
            self._skip_until = 0
        slot = self.free_slot()
        if slot is None:
            raise RuntimeError(f"SM {self.sm_id} has no free CTA slot")
        kernel = kernel if kernel is not None else self.kernel
        kid = kernel.kernel_id
        if kid not in self._kernel_load_sites:
            self._kernel_load_sites[kid] = max(
                1, len(kernel.program.load_sites())
            )
        warps: List[Warp] = []
        for w in range(kernel.warps_per_cta):
            warp = Warp(
                sm_id=self.sm_id,
                slot=self._next_warp_slot,
                cta_slot=slot,
                cta_id=cta_id,
                warp_in_cta=w,
                program=kernel.program,
                leading=self._mark_leading and w == 0,
                launch_cycle=now,
                kernel_id=kid,
            )
            self._next_warp_slot += 1
            warps.append(warp)
            self.warps_by_uid[warp.uid] = warp
            self.warp_by_slot[warp.slot] = warp
        self.cta_slots[slot] = CTAState(
            slot=slot, cta_id=cta_id, warps=warps, unfinished=len(warps),
            kernel=kernel, kernel_id=kid, launch_cycle=now,
        )
        self.unfinished_warps += len(warps)
        if self._multi:
            self.k_unfinished[kid] = (
                self.k_unfinished.get(kid, 0) + len(warps)
            )
            if kid not in self.kstats:
                self.kstats[kid] = KernelStats()
                self.pstats_k[kid] = PrefetchStats()
        if self.prefetcher.wants_group_interleave:
            # ORCH: consecutive warps land in different scheduling groups.
            order = sorted(warps, key=lambda w: (w.warp_in_cta % 2, w.warp_in_cta))
        else:
            order = warps
        for warp in order:
            self.scheduler.add_warp(warp)
        self.prefetcher.on_cta_launch(slot, cta_id, warps)
        if self.obs is not None:
            self.obs.cta_launch(
                self.sm_id, cta_id, now,
                interleaved=self.prefetcher.wants_group_interleave,
                kernel_id=kid,
            )
            for warp in warps:
                self.obs.warp_launch(warp, now)

    @property
    def done(self) -> bool:
        return self.unfinished_warps == 0 and all(s is None for s in self.cta_slots)

    # ---------------------------------------------------------------- cycling
    def cycle(self, now: int) -> None:
        if self.unfinished_warps == 0:
            self._drain_miss_queue(now)
            return
        hh = self._hit_heap
        if hh and hh[0][0] <= now:
            self._complete_hits(now)
        if self.miss_queue or self.store_queue or self.prefetch_miss_queue:
            self._drain_miss_queue(now)

        lsu_busy = False
        replay_progressed = False
        if self.replay is not None:
            lsu_busy = True
            self.stats.replay_cycles += 1
            if self.replay.is_store:
                self.stats.replay_store_cycles += 1
            replay_progressed = self._run_replay(now)

        issued = self._issue(now, lsu_free=not lsu_busy)
        if issued:
            self.stats.issue_cycles += 1
            self.stats.active_cycles += 1
            if self._multi:
                self._charge_kernels(1, {self._issued_kid: 1})
        else:
            self._charge_stall(1)

        # The L1 port is free for a prefetch when no demand access used
        # it: no memory instruction issued and any replay attempt failed
        # its reservation (a blocked replay performs no transaction).
        port_used = issued == "mem" or replay_progressed
        if (
            not port_used
            and self.prefetch_queue
            and self.unused_prefetched_resident < self._prefetch_resident_limit
        ):
            self._service_prefetch(now)

    def _settle_span(self, upto: int) -> None:
        """Close the open lazy stall span, accruing cycles ``[_span_from,
        upto)`` exactly as the reference per-cycle path would have.

        The event engine (:mod:`repro.sim.fastcore`) opens a lazy span
        when no warp can issue before a known wake-up cycle: counters
        are deferred rather than accrued eagerly, so the span is not
        capped at the SM's response horizon — a memory response to this
        SM simply settles the shorter prefix.  Callers: the event-engine dispatch (natural
        expiry), :meth:`on_mem_response` (early truncation), and the
        hook/exit points of the main loop (observer reads).  The stall
        classification and the wedged-replay charge are constant over
        the span because every mutation source either runs through the
        per-cycle path or settles the span first."""
        k = upto - self._span_from
        self._span_from = -1
        replay = self._span_replay
        self._span_replay = False
        if k > 0:
            self._charge_stall(k)
            if replay:
                self._charge_wedged_replay(k)

    # ------------------------------------------------------- cycle accounting
    def _charge_stall(self, k: int) -> None:
        """Charge ``k`` cycles in which nothing issued: active time, the
        stall class, and (multi mode) every resident kernel's view.

        The one stall classifier: the per-cycle path calls it with
        ``k == 1`` and the event engine with whole spans, over which the
        warp counts are constant (blocks, unblocks, finishes and
        launches all end spans first)."""
        stats = self.stats
        stats.active_cycles += k
        if self.waiting_mem_warps >= self.unfinished_warps and self.unfinished_warps:
            stats.stall_mem_all += k
        elif self.waiting_mem_warps > 0:
            stats.stall_mem_partial += k
        else:
            stats.stall_other += k
        if self._multi:
            self._charge_kernels(k, {})

    def _charge_wedged_replay(self, k: int) -> None:
        """Charge ``k`` skipped cycles of a wedged replay: on each the
        per-cycle path would have retried the head line — a load missing
        L1 and failing its reservation again, a store finding the store
        queue full without touching L1."""
        self.stats.replay_cycles += k
        if self.replay.is_store:
            self.stats.replay_store_cycles += k
            return
        l1 = self.l1
        l1._tick += k
        l1.accesses += k
        l1.misses += k
        if self._multi:
            ks = self.kstats[self.replay.warp.kernel_id]
            ks.l1_accesses += k
            ks.l1_misses += k

    def _charge_kernels(self, cycles: int, own: Dict[int, int]) -> None:
        """Multi mode: charge a window of ``cycles`` SM cycles from each
        resident kernel's perspective.  ``own[kid]`` of them issued an
        instruction of kernel ``kid``; the rest (another kernel's issue
        cycles included) are stalls of its own, classified from its own
        waiting/unfinished counts, constant over the window as in
        :meth:`_charge_stall`."""
        for kid, unfin in self.k_unfinished.items():
            issued = own.get(kid, 0)
            if unfin <= 0 and not issued:
                # Not resident — unless the EXIT that retired its last
                # warp is the instruction this very cycle issued.
                continue
            ks = self.kstats[kid]
            ks.active_cycles += cycles
            ks.issue_cycles += issued
            stalled = cycles - issued
            if stalled:
                kw = self.k_waiting.get(kid, 0)
                if kw >= unfin:
                    ks.stall_mem_all += stalled
                elif kw > 0:
                    ks.stall_mem_partial += stalled
                else:
                    ks.stall_other += stalled

    def _complete_hits(self, now: int) -> None:
        heap = self._hit_heap
        while heap and heap[0][0] <= now:
            _, warp_uid = heapq.heappop(heap)
            warp = self.warps_by_uid[warp_uid]
            self._piece_arrived(warp, now)

    def _piece_arrived(self, warp: Warp, now: int) -> None:
        since = warp.blocked_since
        if warp.piece_arrived(now):
            self.waiting_mem_warps -= 1
            if self._multi:
                self.k_waiting[warp.kernel_id] -= 1
            if self.obs is not None and since >= 0:
                self.obs.warp_unblock(warp, since, now)
            if warp.exit_pending:
                self._finish_warp(warp, now)
            else:
                self.scheduler.on_unblock(warp)

    def _warp_blocked(self, warp: Warp, now: int) -> None:
        """``warp`` just entered WAITING_MEM: count it and tell the
        scheduler and the trace."""
        self.waiting_mem_warps += 1
        if self._multi:
            self.k_waiting[warp.kernel_id] = (
                self.k_waiting.get(warp.kernel_id, 0) + 1
            )
        self.scheduler.on_block(warp)
        if self.obs is not None:
            self.obs.warp_block(warp, now)

    def _charge_defer(self, warp: Warp, now: int) -> None:
        if warp.charge_defer_budget(now):
            self._warp_blocked(warp, now)

    def _drain_miss_queue(self, now: int) -> None:
        for _ in range(MISS_QUEUE_DRAIN):
            if not self.miss_queue:
                break
            if not self.subsystem.submit(self.miss_queue[0], now):
                break
            self.miss_queue.popleft()
        # Stores and prefetches have their own injection slots so write
        # or prefetch bursts never wait behind demand-miss bursts (and
        # vice versa); prefetch priority is enforced downstream (FR-FCFS).
        if self.store_queue and self.subsystem.submit(self.store_queue[0], now):
            self.store_queue.popleft()
        if self.prefetch_miss_queue and self.subsystem.submit(
            self.prefetch_miss_queue[0], now
        ):
            self.prefetch_miss_queue.popleft()

    # ------------------------------------------------------------------ issue
    def _issue(self, now: int, lsu_free: bool):
        """Issue at most one instruction; returns False, "alu" or "mem"."""
        warp = self.scheduler.pick(now, lsu_free)
        if warp is None:
            return False
        if self._multi:
            self._issued_kid = warp.kernel_id
        cursor = warp.cursor
        kind = cursor.kind
        if kind == EXIT:
            cursor.next_instr()
            if warp.pending_pieces:
                # Deferred loads still in flight: a warp cannot retire
                # with outstanding memory requests.  Block; the last
                # arriving piece completes the retirement.
                warp.exit_pending = True
                warp.state = WarpState.WAITING_MEM
                warp.blocked_since = now
                self._warp_blocked(warp, now)
            else:
                self._finish_warp(warp, now)
            return "alu"
        warp.instructions_issued += 1
        self.stats.instructions += 1
        if self._multi:
            self.kstats[warp.kernel_id].instructions += 1
        if kind == ALU:
            warp.ready_at = now + cursor.lat
            cursor.consume_alu(1)
            if warp.defer_budget:
                self._charge_defer(warp, now)
            return "alu"
        site, iteration, use_distance = cursor.take_mem()
        if kind == LOAD:
            self._issue_load(warp, site, iteration, use_distance, now)
        else:
            self._issue_store(warp, site, iteration, now)
            if warp.defer_budget:
                self._charge_defer(warp, now)
        return "mem"

    def _ctx(self, warp: Warp, iteration: int) -> AddressContext:
        kernel = self.cta_slots[warp.cta_slot].kernel
        return AddressContext(
            cta_id=warp.cta_id,
            warp_in_cta=warp.warp_in_cta,
            iteration=iteration,
            warps_per_cta=kernel.warps_per_cta,
            num_ctas=kernel.num_ctas,
        )

    def _issue_load(self, warp: Warp, site: LoadSite, iteration: int,
                    use_distance: int, now: int) -> None:
        addrs = site.addresses(self._ctx(warp, iteration))
        line_addrs = coalesce(addrs, self.l1.line_bytes)
        self.stats.loads_issued += 1
        self.stats.demand_l1_accesses += len(line_addrs)
        if self._multi:
            ks = self.kstats[warp.kernel_id]
            ks.loads_issued += 1
            ks.demand_l1_accesses += len(line_addrs)
        cands = self.prefetcher.on_load_issue(
            warp, site, addrs, line_addrs, iteration, now
        )
        if cands:
            self.enqueue_prefetches(cands)
        if warp.leading:
            # The leading-warp marker expires once the warp has issued
            # the targeted loads: its job — computing the CTA's base
            # addresses early — is done, and keeping it prioritized
            # would only skew trailing-warp progress.
            warp.lead_loads_issued += 1
            targeted = min(
                self.config.prefetch.dist_entries,
                self._kernel_load_sites[warp.kernel_id],
            )
            if warp.lead_loads_issued >= targeted:
                warp.leading = False
                if self.obs is not None:
                    self.obs.lead_disarm(warp, now)
        if use_distance > 0 and warp.pending_pieces == 0:
            # Independent instructions follow: the warp keeps issuing
            # (compiler-scheduled ILP below the load).
            warp.defer_on_memory(len(line_addrs), use_distance)
        else:
            # A further memory op while pieces are outstanding ends any
            # deferral window: block on everything in flight.
            already_blocked = warp.state is WarpState.WAITING_MEM
            warp.block_on_memory(len(line_addrs), now)
            if not already_blocked:
                self._warp_blocked(warp, now)
        remaining = list(line_addrs)
        self._process_demand_lines(warp, site.pc, remaining, iteration, now)
        if remaining:
            self.replay = _Replay(
                warp=warp,
                pc=site.pc,
                remaining=remaining,
                is_store=False,
                iteration=iteration,
            )

    def _issue_store(self, warp: Warp, site: LoadSite, iteration: int,
                     now: int) -> None:
        addrs = site.addresses(self._ctx(warp, iteration))
        line_addrs = coalesce(addrs, self.l1.line_bytes)
        self.stats.stores_issued += 1
        if self._multi:
            self.kstats[warp.kernel_id].stores_issued += 1
        warp.ready_at = now + STORE_LATENCY
        remaining = list(line_addrs)
        self._process_store_lines(warp, site.pc, remaining, now)
        if remaining:
            self.replay = _Replay(
                warp=warp,
                pc=site.pc,
                remaining=remaining,
                is_store=True,
                iteration=iteration,
            )

    def _run_replay(self, now: int) -> bool:
        """Retry a blocked load/store; True if any line made progress."""
        rp = self.replay
        before = len(rp.remaining)
        if rp.is_store:
            self._process_store_lines(rp.warp, rp.pc, rp.remaining, now)
        else:
            self._process_demand_lines(rp.warp, rp.pc, rp.remaining, rp.iteration, now)
        if not rp.remaining:
            self.replay = None
        return len(rp.remaining) < before

    def _process_demand_lines(
        self,
        warp: Warp,
        pc: int,
        remaining: List[int],
        iteration: int,
        now: int,
    ) -> None:
        """Consume line transactions from ``remaining`` until done or a
        reservation failure (MSHR/miss-queue full) forces a replay."""
        while remaining:
            line_addr = remaining[0]
            line = self.l1.lookup(line_addr)
            if self._multi:
                ks = self.kstats[warp.kernel_id]
                ks.l1_accesses += 1
                if line is not None:
                    ks.l1_hits += 1
                else:
                    ks.l1_misses += 1
            if line is not None:
                if line.prefetched and not line.used:
                    line.used = True
                    self.unused_prefetched_resident -= 1
                    self.pstats.record_useful(now - line.prefetch_issue_cycle)
                    if self._multi:
                        self.pstats_k[warp.kernel_id].record_useful(
                            now - line.prefetch_issue_cycle
                        )
                    if self.obs is not None:
                        self.obs.pf_useful(
                            self.sm_id, now - line.prefetch_issue_cycle, now
                        )
                heapq.heappush(
                    self._hit_heap, (now + self.l1.config.hit_latency, warp.uid)
                )
                remaining.pop(0)
                continue
            meta = self._inflight_prefetch.get(line_addr)
            if meta is not None:
                # Demand caught an in-flight prefetch: wait on its fill
                # (partial latency hiding) and promote the request to
                # demand priority downstream.
                if len(meta.waiters) >= self.l1.mshr.merge_limit:
                    return  # replay
                if not meta.waiters:
                    # Count the prefetch as consumed once (further
                    # demand warps merging are ordinary MSHR-style
                    # merges, not additional prefetch successes).
                    self.pstats.record_late_merge(now - meta.issue_cycle)
                    if self._multi:
                        self.pstats_k[warp.kernel_id].record_late_merge(
                            now - meta.issue_cycle
                        )
                    if self.obs is not None:
                        self.obs.pf_late_merge(
                            self.sm_id, now - meta.issue_cycle, now
                        )
                meta.waiters.append(warp.uid)
                meta.req.access = Access.DEMAND
                remaining.pop(0)
                continue
            mshr = self.l1.mshr
            merge = mshr.pending(line_addr)
            if merge:
                if not mshr.can_merge(line_addr):
                    return  # replay
            elif mshr.full or len(self.miss_queue) >= self.miss_queue_depth:
                return  # replay
            req = MemoryRequest(
                line_addr=line_addr,
                sm_id=self.sm_id,
                access=Access.DEMAND,
                pc=pc,
                warp_uid=warp.uid,
                issue_cycle=now,
                kernel_id=warp.kernel_id,
            )
            remaining.pop(0)
            if merge:
                mshr.merge(req)
                continue
            mshr.allocate(req)
            self.miss_queue.append(req)
            self.stats.demand_mem_fetches += 1
            if self._multi:
                ks = self.kstats[warp.kernel_id]
                ks.demand_mem_fetches += 1
                ks.mshr_allocated += 1
            cands = self.prefetcher.on_l1_miss(warp, pc, line_addr, now)
            if cands:
                self.enqueue_prefetches(cands)

    def _process_store_lines(
        self, warp: Warp, pc: int, remaining: List[int], now: int
    ) -> None:
        while remaining:
            if len(self.store_queue) >= self.store_queue_depth:
                return  # replay
            line_addr = remaining.pop(0)
            self.store_queue.append(
                MemoryRequest(
                    line_addr=line_addr,
                    sm_id=self.sm_id,
                    access=Access.STORE,
                    pc=pc,
                    warp_uid=warp.uid,
                    issue_cycle=now,
                    kernel_id=warp.kernel_id,
                )
            )

    # -------------------------------------------------------------- prefetch
    def _pk(self, line_addr: int) -> PrefetchStats:
        """Per-kernel prefetch stats slice owning ``line_addr`` (multi
        mode only); kernels occupy disjoint address ranges, so the owner
        is exact."""
        kid = line_addr >> KERNEL_ADDR_SHIFT
        pk = self.pstats_k.get(kid)
        if pk is None:
            pk = self.pstats_k[kid] = PrefetchStats()
        return pk

    def enqueue_prefetches(self, cands: List[PrefetchCandidate]) -> None:
        self.pstats.candidates += len(cands)
        multi = self._multi
        for c in cands:
            line = self.l1.align(c.line_addr)
            if multi:
                pk = self._pk(line)
                pk.candidates += 1
            if line in self._queued_prefetch_lines:
                continue
            if len(self.prefetch_queue) >= PREFETCH_QUEUE_DEPTH:
                # Tail drop: queued prefetches are older and therefore
                # closer to their demand; the incoming one is furthest in
                # the future and cheapest to lose.
                self.pstats.queue_drops += 1
                if multi:
                    pk.queue_drops += 1
                continue
            self.prefetch_queue.append(c)
            self._queued_prefetch_lines.add(line)

    def _service_prefetch(self, now: int) -> None:
        cand = self.prefetch_queue.popleft()
        line_addr = self.l1.align(cand.line_addr)
        self._queued_prefetch_lines.discard(line_addr)
        multi = self._multi
        if self.l1.probe(line_addr) is not None:
            self.pstats.drop_l1_hit += 1
            if multi:
                self._pk(line_addr).drop_l1_hit += 1
            return
        if self.l1.mshr.pending(line_addr) or line_addr in self._inflight_prefetch:
            self.pstats.drop_inflight += 1
            if multi:
                self._pk(line_addr).drop_inflight += 1
            return
        if (
            len(self._inflight_prefetch) >= self.prefetch_inflight_limit
            or len(self.prefetch_miss_queue) >= self.prefetch_miss_queue_depth
        ):
            self.pstats.drop_resource += 1
            if multi:
                self._pk(line_addr).drop_resource += 1
            return
        req = MemoryRequest(
            line_addr=line_addr,
            sm_id=self.sm_id,
            access=Access.PREFETCH,
            pc=cand.pc,
            target_warp=cand.target_warp_uid,
            issue_cycle=now,
            kernel_id=line_addr >> KERNEL_ADDR_SHIFT,
        )
        self.prefetch_miss_queue.append(req)
        self._inflight_prefetch[line_addr] = _InflightPrefetch(
            issue_cycle=now,
            pc=cand.pc,
            target_warp_uid=cand.target_warp_uid,
            req=req,
        )
        self.pstats.issued += 1
        if multi:
            self._pk(line_addr).issued += 1
        if self.obs is not None:
            self.obs.pf_issue(req, now)

    # -------------------------------------------------------------- responses
    def on_mem_response(self, req: MemoryRequest, now: int) -> None:
        if self._span_from >= 0:
            # The SM phase of cycle `now` already passed (skipped inside
            # the span) before this subsystem-phase delivery: settle
            # through `now` inclusive, with pre-response warp counts.
            self._settle_span(now + 1)
            self._skip_until = 0
        elif not self._span_hard:
            self._skip_until = 0
        line_addr = req.line_addr
        meta = self._inflight_prefetch.get(line_addr)
        if meta is not None and req is meta.req:
            self._on_prefetch_fill(meta, now)
            return
        merged = self.l1.mshr.release(line_addr)
        if self._multi:
            self.kstats[req.kernel_id].mshr_released += 1
        victim = self.l1.fill(line_addr, cycle=now)
        if victim is not None and victim.prefetched and not victim.used:
            self._early_evicted(victim, now)
        for m in merged:
            if m.access is Access.DEMAND:
                warp = self.warps_by_uid.get(m.warp_uid)
                # Credit by outstanding pieces, not by state: a deferred
                # warp (use_distance) is READY while its load is in
                # flight and must still receive its data.
                if warp is not None and warp.pending_pieces > 0:
                    self._piece_arrived(warp, now)

    def _early_evicted(self, victim, now: int) -> None:
        """A fill displaced a prefetched line no demand ever used."""
        self.pstats.early_evicted += 1
        if self._multi:
            self._pk(victim.line_addr).early_evicted += 1
        self.unused_prefetched_resident -= 1
        if self.obs is not None:
            self.obs.pf_early_evict(self.sm_id, now)

    def _on_prefetch_fill(self, meta: "_InflightPrefetch", now: int) -> None:
        line_addr = meta.req.line_addr
        del self._inflight_prefetch[line_addr]
        untouched = not meta.waiters
        victim = self.l1.fill(
            line_addr,
            cycle=now,
            prefetched=untouched,
            prefetch_pc=meta.pc,
            prefetch_issue_cycle=meta.issue_cycle,
        )
        if self.obs is not None:
            self.obs.pf_fill(meta.req, now)
        if untouched:
            self.unused_prefetched_resident += 1
        if victim is not None and victim.prefetched and not victim.used:
            self._early_evicted(victim, now)
        for uid in meta.waiters:
            warp = self.warps_by_uid.get(uid)
            if warp is not None and warp.pending_pieces > 0:
                self._piece_arrived(warp, now)
        if (
            untouched
            and self.prefetcher.wants_eager_wakeup
            and self.config.prefetch.eager_wakeup
            and meta.target_warp_uid >= 0
        ):
            target = self.warps_by_uid.get(meta.target_warp_uid)
            if target is not None and not target.finished:
                self.scheduler.on_prefetch_fill(target)
                if self.obs is not None:
                    self.obs.eager_wakeup(target, now)

    # ------------------------------------------------------------ warp finish
    def _finish_warp(self, warp: Warp, now: int) -> None:
        warp.finish(now)
        if self.obs is not None:
            self.obs.warp_finish(warp, now)
        self.scheduler.remove_warp(warp)
        self.unfinished_warps -= 1
        cta = self.cta_slots[warp.cta_slot]
        cta.unfinished -= 1
        if self._multi:
            self.k_unfinished[warp.kernel_id] -= 1
        if cta.unfinished == 0:
            self.cta_slots[warp.cta_slot] = None
            self.stats.ctas_executed += 1
            if self._multi:
                self.kstats[cta.kernel_id].ctas_executed += 1
            for w in cta.warps:
                self.warps_by_uid.pop(w.uid, None)
                self.warp_by_slot.pop(w.slot, None)
            self.prefetcher.on_cta_finish(cta.slot, cta.cta_id)
            self.on_cta_done(self.sm_id, cta, now)

    # -------------------------------------------------------------- finalize
    def finalize(self) -> None:
        """Classify leftover prefetched lines as unused (run end)."""
        l1 = self.l1
        for idx, cset in enumerate(l1._sets):
            for tag, line in cset.items():
                if line.prefetched and not line.used:
                    self.pstats.unused_at_end += 1
                    if self._multi:
                        addr = ((tag << l1._set_shift) | idx) << l1._line_shift
                        self._pk(addr).unused_at_end += 1
        for m in self._inflight_prefetch.values():
            if not m.waiters:
                self.pstats.unused_at_end += 1
                if self._multi:
                    self._pk(m.req.line_addr).unused_at_end += 1
