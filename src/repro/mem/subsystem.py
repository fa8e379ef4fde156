"""Wiring of the shared memory system: icnt -> L2 partitions -> DRAM.

The per-SM L1D caches live inside the SMs (see :mod:`repro.sim.sm`); this
module owns everything behind them.  Requests are line-granular.  Each L2
partition serves one lookup per cycle from a bounded input queue; misses
allocate a partition-level MSHR and occupy a slot in the backing DRAM
channel's bounded FR-FCFS queue.  Stores are write-through/no-allocate
traffic.  Responses return through a bandwidth-limited pipe and are
dispatched to the owning SM via a callback.

Every queue is finite except the return path, whose drain is
bandwidth-limited; backpressure therefore propagates from DRAM up to the
SMs, reproducing the bursty-miss congestion of the paper's Section I.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, Dict, List

from repro.config import GPUConfig
from repro.mem.cache import Cache, Mshr
from repro.mem.dram import DramChannel
from repro.mem.icnt import Pipe
from repro.mem.request import Access, MemoryRequest

_STORE = Access.STORE


class _L2Partition:
    """One L2 slice: input queue, tag store, MSHRs, DRAM port."""

    def __init__(self, config: GPUConfig, pid: int, channel: DramChannel):
        self.pid = pid
        self.cache = Cache(config.l2, name=f"l2.{pid}")
        self.mshr = Mshr(config.l2.mshr_entries)
        self.in_queue: Deque[MemoryRequest] = deque()
        self.in_capacity = config.icnt.queue_depth
        self.channel = channel
        self.hit_latency = config.l2.hit_latency
        self.stall_cycles = 0
        # Event engine only: first uncharged cycle of a wedge (MSHR full
        # or head at its entry's merge limit; -1 = none); see
        # MemorySubsystem._l2_cycle.
        self.wedged_from = -1

    def settle_wedge(self, upto: int) -> None:
        """Charge wedged cycles ``[wedged_from, upto)`` and move the mark
        to ``upto``: on each the reference ``_l2_cycle`` re-probed the
        head tag, missed and stalled."""
        k = upto - self.wedged_from
        self.wedged_from = upto
        if k > 0:
            self.stall_cycles += k
            self.cache._tick += k
            self.cache.accesses += k
            self.cache.misses += k


class MemorySubsystem:
    """Everything behind the SMs' L1 caches."""

    def __init__(
        self,
        config: GPUConfig,
        num_sms: int,
        on_response: Callable[[MemoryRequest], None],
        faults=None,
    ):
        self.config = config
        self.num_sms = num_sms
        self.on_response = on_response
        #: Optional :class:`repro.guard.faults.MemoryFaultInjector`
        #: consulted on the response path (chaos testing).
        self.faults = faults
        self._line_shift = config.line_bytes.bit_length() - 1
        self.channels = [
            DramChannel(config.dram, c) for c in range(config.dram.channels)
        ]
        self.partitions = [
            _L2Partition(config, p, self.channels[p % config.dram.channels])
            for p in range(config.l2_partitions)
        ]
        self.request_pipe = Pipe(
            config.icnt.latency,
            config.icnt.requests_per_cycle,
            config.icnt.queue_depth * max(1, num_sms),
        )
        # Return path: latency + bandwidth bound but effectively unbounded
        # occupancy so DRAM completions are never blocked (no deadlock).
        self.response_pipe = Pipe(
            config.icnt.latency,
            config.icnt.requests_per_cycle,
            1 << 30,
        )
        self._l2_wait: List = []  # heap of (ready_cycle, seq, req) for L2 hits
        self._seq = 0
        # Event-engine bookkeeping (the cycle engine never reads these):
        # first cycle at which cycle() must actually run; per-channel
        # utilization accrual lives on each DramChannel._accounted_to.
        self._next_event = 0
        self._complete_now = 0
        # Per-SM response horizon (repro.sim.fastcore): a heap of the
        # distinct due cycles of each SM's reads past their L2 lookup,
        # with a count per cycle; delivery and drops retire them.
        self.response_lag = config.l2.hit_latency + config.icnt.latency
        self.due_heaps: List[List[int]] = [[] for _ in range(num_sms)]
        self._due_counts: List[Dict[int, int]] = [{} for _ in range(num_sms)]
        # stats
        self.core_requests = 0          # demand + prefetch + store entering icnt
        self.core_demand_requests = 0
        self.core_prefetch_requests = 0
        self.core_store_requests = 0
        self.responses_delivered = 0

    # ------------------------------------------------------------------ SM side
    def submit(self, req: MemoryRequest, now: int) -> bool:
        """Called by an SM's LSU for each L1 miss / store.  Returns False
        when the network is saturated (SM must retry).  The one entry
        into the request pipe, so it routes the request: ``req.part`` is
        its L2 partition (lines interleave across partitions)."""
        pipe = self.request_pipe
        if len(pipe._q) >= pipe.capacity:
            return False
        req.part = (req.line_addr >> self._line_shift) % len(self.partitions)
        pipe.push(req, now)
        ripe = now + pipe.latency
        if ripe < self._next_event:
            self._next_event = ripe
        self.core_requests += 1
        if req.access is Access.DEMAND:
            self.core_demand_requests += 1
        elif req.access is Access.PREFETCH:
            self.core_prefetch_requests += 1
        else:
            self.core_store_requests += 1
        return True

    # ------------------------------------------------------------------- cycle
    def cycle(self, now: int) -> None:
        # 1. DRAM: completions fill L2 and release partition MSHRs.
        # (The completion callback is a prebound method — allocating a
        # closure per channel per cycle measurably slows the hot loop.)
        self._complete_now = now
        for ch in self.channels:
            ch.cycle(now, self._dram_complete, self._dram_issued)
        # 2. L2 hit completions that have waited out the L2 latency.
        self._drain_l2_wait(now)
        # 3. L2 partitions process their input queues.
        for part in self.partitions:
            self._l2_cycle(part, now)
        # 4. Move requests from the icnt into partition input queues.
        self._drain_requests(now)
        # 5. Deliver ripe responses to SMs.
        self.response_pipe.drain(now, self._deliver_response)

    def _drain_l2_wait(self, now: int) -> None:
        """Move ripe entries off the L2 wait heap onto the return pipe.

        Every read response funnels through ``_l2_wait`` (both the hit
        path and the DRAM-fill path), so this is the single choke point
        where the fault injector can drop or delay responses."""
        while self._l2_wait and self._l2_wait[0][0] <= now:
            _, _, req = heapq.heappop(self._l2_wait)
            if self.faults is not None:
                fate = self.faults.on_response(req)
                if fate == "drop":
                    self._retire(req)
                    continue
                if fate == "delay":
                    self._seq += 1
                    heapq.heappush(
                        self._l2_wait,
                        (now + self.faults.plan.delay_cycles, self._seq, req),
                    )
                    continue
            self.response_pipe.push(req, now)

    def _drain_requests(self, now: int) -> None:
        """Move up to the pipe's bandwidth of ripe requests into their
        partitions' input queues, in order: a head whose partition is
        full blocks everything behind it (head-of-line blocking)."""
        pipe = self.request_pipe
        q = pipe._q
        parts = self.partitions
        n = pipe.bw
        while q and n:
            ready_at, req = q[0]
            if ready_at > now:
                return
            part = parts[req.part]
            if len(part.in_queue) >= part.in_capacity:
                return
            q.popleft()
            part.in_queue.append(req)
            n -= 1

    def _deliver_response(self, req: MemoryRequest) -> bool:
        self._retire(req)
        self.on_response(req)
        self.responses_delivered += 1
        return True

    def _track(self, req: MemoryRequest, due: int) -> None:
        """``req`` can be delivered from cycle ``due`` on."""
        req.due = due
        counts = self._due_counts[req.sm_id]
        n = counts.get(due, 0)
        counts[due] = n + 1
        if not n:
            heapq.heappush(self.due_heaps[req.sm_id], due)

    def _retire(self, req: MemoryRequest) -> None:
        """``req`` was delivered or dropped: forget its due cycle and
        pop the heap past every due cycle with no read left."""
        counts = self._due_counts[req.sm_id]
        n = counts[req.due] - 1
        if n:
            counts[req.due] = n
            return
        del counts[req.due]
        heap = self.due_heaps[req.sm_id]
        while heap and heap[0] not in counts:
            heapq.heappop(heap)

    def _dram_issued(self, req: MemoryRequest, done: int) -> None:
        """The DRAM read of ``req``'s L2 MSHR entry issued: every read
        on the entry is due once the fill crossed L2 and the return pipe."""
        due = done + self.response_lag
        entry = self.partitions[req.part].mshr._entries[req.line_addr]
        for r in entry.requests:
            self._track(r, due)

    def _dram_complete(self, req: MemoryRequest) -> None:
        """Completion callback; the cycle is the one :meth:`cycle` (or
        :meth:`cycle_event`) set in ``_complete_now``."""
        now = self._complete_now
        part = self.partitions[req.part]
        if part.wedged_from >= 0:
            # The fill may free it: settle before the fill's tick and
            # let cycle_event re-probe the head.
            part.settle_wedge(now)
            part.wedged_from = -1
        part.cache.fill(req.line_addr, cycle=now)
        # The returning line traverses the same L2 pipeline a hit does
        # (fill + forward), so misses pay the L2 latency on top of DRAM.
        for merged in part.mshr.release(req.line_addr):
            self._seq += 1
            heapq.heappush(
                self._l2_wait, (now + part.hit_latency, self._seq, merged)
            )

    def _l2_cycle(self, part: _L2Partition, now: int) -> bool:
        """Serve the head of ``part``'s input queue.  True when ``part``
        is frozen until a fill on it: the head read missed and is either
        pending on an entry at its merge limit (that line's fill frees
        it) or not pending with the MSHR full (any fill frees an entry).
        Only ``_dram_complete`` fills."""
        if not part.in_queue:
            return False
        req = part.in_queue[0]
        ch = part.channel
        if req.access is _STORE:
            # Write-through, no-allocate: needs a write-buffer slot.
            if len(ch.write_queue) >= ch.config.queue_entries:
                part.stall_cycles += 1
                return False
            part.in_queue.popleft()
            ch.push(req)
            return False
        line = part.cache.lookup(req.line_addr)
        if line is not None:
            part.in_queue.popleft()
            req.l2_hit = True
            self._seq += 1
            heapq.heappush(self._l2_wait, (now + part.hit_latency, self._seq, req))
            self._track(req, now + self.response_lag)
            return False
        mshr = part.mshr
        entry = mshr._entries.get(req.line_addr)
        if entry is not None:
            if len(entry.requests) >= mshr.merge_limit:
                part.stall_cycles += 1
                return True
            part.in_queue.popleft()
            mshr.merge(req)
            due = entry.requests[0].due
            if due >= 0:  # the entry's DRAM read already issued
                self._track(req, due)
            return False
        frozen = len(mshr._entries) >= mshr.capacity
        if frozen or len(ch.queue) >= ch.config.queue_entries:
            part.stall_cycles += 1
            return frozen
        part.in_queue.popleft()
        mshr.allocate(req)
        ch.push(req)
        return False

    # ------------------------------------------------------------ event engine
    def cycle_event(self, now: int) -> None:
        """Event-engine entry: run one real cycle, skipping components
        with provably nothing to do, then recompute the next event.

        Equivalent to calling :meth:`cycle` for every cycle in
        ``(last real cycle, now]``: the skipped cycles and skipped
        components provably perform no state change beyond counters
        that accrue lazily — an idle DRAM channel's utilization
        (``DramChannel._accounted_to`` + :meth:`account_idle_span`) and
        a wedged L2 partition's stall and head re-probe
        (``_L2Partition.wedged_from`` + ``settle_wedge``)."""
        self._complete_now = now
        nxt = 1 << 62
        for ch in self.channels:
            comp = ch._completions
            writes = ch._writes
            if (ch.queue or ch.write_queue or (comp and comp[0][0] <= now)
                    or (writes and writes[-1] <= now)):
                gap = now - ch._accounted_to
                if gap > 0:
                    ch.account_idle_span(gap)
                ch.cycle(now, self._dram_complete, self._dram_issued)
                ch._accounted_to = now + 1
        w = self._l2_wait
        if w and w[0][0] <= now:
            self._drain_l2_wait(now)
        busy = False
        for part in self.partitions:
            if part.in_queue and part.wedged_from < 0:
                if self._l2_cycle(part, now):
                    part.wedged_from = now + 1
                elif part.in_queue:
                    busy = True
        q = self.request_pipe._q
        if q and q[0][0] <= now:
            self._drain_requests(now)
        q = self.response_pipe._q
        if q and q[0][0] <= now:
            self.response_pipe.drain(now, self._deliver_response)
        # Next event: the earliest cycle > now at which cycle() would
        # change any state other than lazily accrued counters — the
        # minimum over non-wedged partition input queues (occupancy
        # observed above), DRAM channels, the L2 wait heap and both
        # pipes' head ready times.  A wedged partition, and a ripe
        # request-pipe head it refuses, wait for a fill that the
        # channel's term bounds.  submit() pulls it earlier mid-span.
        rq = self.request_pipe._q
        if not busy and rq and rq[0][0] <= now:
            part = self.partitions[rq[0][1].part]
            if part.wedged_from < 0 or len(part.in_queue) < part.in_capacity:
                busy = True
            rq = None
        if busy:
            self._next_event = now + 1
            return
        for part in self.partitions:
            if part.in_queue and part.wedged_from < 0:
                self._next_event = now + 1
                return
        for ch in self.channels:
            t = ch.next_event_cycle(now + 1)
            if t < nxt:
                nxt = t
        w = self._l2_wait
        if w and w[0][0] < nxt:
            nxt = w[0][0]
        if rq and rq[0][0] < nxt:
            nxt = rq[0][0]
        q = self.response_pipe._q
        if q and q[0][0] < nxt:
            nxt = q[0][0]
        self._next_event = nxt if nxt > now else now + 1

    def sync_accounting(self, now: int) -> None:
        """Bring lazy counters (idle DRAM channels, wedged L2 partitions)
        up to date through ``now - 1``, and drop the writes finished by
        then, so ``inflight`` is exact; called before any observer reads
        them (window flushes, deep checks, hang snapshots, run end)."""
        for ch in self.channels:
            gap = now - ch._accounted_to
            if gap > 0:
                ch.account_idle_span(gap)
                ch._accounted_to = now
            writes = ch._writes
            while writes and writes[0] < now:
                writes.popleft()
        for part in self.partitions:
            if part.wedged_from >= 0:
                part.settle_wedge(now)

    # ------------------------------------------------------------------- stats
    @property
    def dram_reads(self) -> int:
        return sum(ch.reads for ch in self.channels)

    @property
    def dram_writes(self) -> int:
        return sum(ch.writes for ch in self.channels)

    @property
    def dram_row_hit_rate(self) -> float:
        hits = sum(ch.row_hits for ch in self.channels)
        total = hits + sum(ch.row_misses for ch in self.channels)
        return hits / total if total else 0.0

    def l2_hit_rate(self) -> float:
        acc = sum(p.cache.accesses for p in self.partitions)
        hits = sum(p.cache.hits for p in self.partitions)
        return hits / acc if acc else 0.0

    def l2_queue_depth(self) -> int:
        """Requests currently waiting in L2 partition input queues
        (instantaneous occupancy; sampled by :mod:`repro.obs`)."""
        return sum(len(p.in_queue) for p in self.partitions)

    def dram_queue_depth(self) -> int:
        """Read requests queued or in flight across all DRAM channels
        (instantaneous occupancy; sampled by :mod:`repro.obs`)."""
        return sum(len(ch) + ch.inflight for ch in self.channels)

    def drained(self) -> bool:
        """True when no request is in flight anywhere behind the SMs."""
        if self.request_pipe or self.response_pipe or self._l2_wait:
            return False
        for part in self.partitions:
            if part.in_queue or len(part.mshr):
                return False
        for ch in self.channels:
            if not ch.drained:
                return False
        return True
