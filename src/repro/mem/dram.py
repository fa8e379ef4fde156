"""GDDR5 channel with FR-FCFS scheduling (paper Table III).

Each channel owns a bounded request queue (16 entries in the paper's
config), per-bank open-row state, and a shared data bus.  Scheduling is
FR-FCFS with demand-over-prefetch priority: the oldest row-hitting
demand request wins, then the oldest demand, then prefetches in the same
order — so inaccurate prefetch floods (INTER/MTA) mostly consume
otherwise-idle bandwidth yet still delay demand traffic through queue
occupancy.

Timing model: a row hit occupies the data bus for ``row_hit_cycles``;
a row miss first spends ``row_miss_cycles − row_hit_cycles`` activating
its bank (overlappable across banks) and then the same bus burst.  Bank
conflicts serialize on ``bank_free``; the bus serializes all bursts.
This reproduces the two behaviours the paper leans on: queueing delay
grows super-linearly under miss bursts, and row locality (or the lack of
it, after inaccurate prefetch interleaving) changes effective latency.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.config import DRAMConfig
from repro.mem.request import Access, MemoryRequest

_STORE = Access.STORE


class DramChannel:
    """One memory channel: bounded queue, FR-FCFS, banked timing."""

    def __init__(self, config: DRAMConfig, channel_id: int):
        self.config = config
        self.channel_id = channel_id
        self.queue: List[MemoryRequest] = []
        # Writes buffer separately and drain below reads (write-drain
        # mode when the buffer fills), so store bursts never block reads
        # structurally.
        self.write_queue: List[MemoryRequest] = []
        self._open_row: Dict[int, int] = {}
        self._bank_free: Dict[int, int] = {}
        self._bus_free = 0
        # Every burst starts at or after _bus_free and then sets it to
        # its done cycle, and a burst takes >= 1 cycle (DRAMConfig), so
        # done cycles strictly increase in issue order: both in-flight
        # FIFOs below are sorted.  A read's completion calls back; a
        # write's does nothing, so only the last write is an event.
        self._completions: Deque[Tuple[int, MemoryRequest]] = deque()
        self._writes: Deque[int] = deque()
        # stats
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.busy_cycles = 0
        self.queue_occupancy_sum = 0
        self.cycles_observed = 0
        self.service_wait_sum = 0
        # Event-engine bookkeeping: cycle up to which the per-cycle
        # utilization counters above are accrued (the cycle engine calls
        # :meth:`cycle` every cycle and never reads this).
        self._accounted_to = 0

    def __len__(self) -> int:
        return len(self.queue)

    @property
    def inflight(self) -> int:
        return len(self._completions) + len(self._writes)

    @property
    def full(self) -> bool:
        return len(self.queue) >= self.config.queue_entries

    def can_accept(self) -> bool:
        return not self.full

    def can_accept_write(self) -> bool:
        return len(self.write_queue) < self.config.queue_entries

    def push(self, req: MemoryRequest) -> None:
        if req.dram_bank < 0:
            req.dram_bank, req.dram_row = self._bank_row(req.line_addr)
        if req.access is _STORE:
            if len(self.write_queue) >= self.config.queue_entries:
                raise OverflowError("DRAM write queue full")
            self.write_queue.append(req)
            return
        if len(self.queue) >= self.config.queue_entries:
            raise OverflowError("DRAM queue full")
        self.queue.append(req)

    def _bank_row(self, line_addr: int) -> Tuple[int, int]:
        row_id = line_addr // self.config.row_bytes
        bank = row_id % self.config.banks_per_channel
        row = row_id // self.config.banks_per_channel
        return bank, row

    def _pick(self) -> Optional[int]:
        """FR-FCFS pick: queue index of the next request, or None.

        Priority classes: demand reads, then writes (the write buffer
        drains below reads), then prefetches; row hits first within each
        class, oldest-first within that.
        """
        # [demand_hit, demand, write_hit, write, prefetch_hit, prefetch]
        firsts = [-1] * 6
        low_pf = self.config.prefetch_low_priority
        open_row = self._open_row
        prefetch = Access.PREFETCH
        store = Access.STORE
        for i, req in enumerate(self.queue):
            acc = req.access
            if acc is prefetch and low_pf:
                cls = 4
            elif acc is store:
                cls = 2
            else:
                cls = 0
            if firsts[cls] < 0 and open_row.get(req.dram_bank) == req.dram_row:
                firsts[cls] = i
            if firsts[cls + 1] < 0:
                firsts[cls + 1] = i
        for idx in firsts:
            if idx >= 0:
                return idx
        return None

    def cycle(self, now: int, complete: Callable[[MemoryRequest], None],
              issued: Optional[Callable] = None) -> None:
        """Advance one core cycle; invokes ``complete`` on finished reads
        and ``issued(req, done)`` on a read sent to the banks this cycle."""
        self.cycles_observed += 1
        self.queue_occupancy_sum += len(self.queue)
        comp = self._completions
        while comp and comp[0][0] <= now:
            complete(comp.popleft()[1])
        writes = self._writes
        while writes and writes[0] <= now:
            writes.popleft()
        if not self.queue and not self.write_queue:
            if comp or writes:
                self.busy_cycles += 1
            return
        self.busy_cycles += 1
        # Issue at most one request per cycle to the banks.  Writes drain
        # only when no read is waiting, or when the write buffer is at
        # least three-quarters full (forced drain).
        from_writes = not self.queue or (
            len(self.write_queue) >= (3 * self.config.queue_entries) // 4
        )
        if from_writes and self.write_queue:
            q = self.write_queue
            idx = 0
        else:
            q = self.queue
            idx = self._pick()
        if idx is None:  # pragma: no cover - queue non-empty implies a pick
            return
        req = q[idx]
        bank = req.dram_bank
        row = req.dram_row
        burst = self.config.row_hit_cycles
        activate = self.config.row_miss_cycles - burst
        bank_free = self._bank_free.get(bank, 0)
        if self._open_row.get(bank) == row:
            # Row hit: only needs the bank (briefly) and the data bus.
            data_start = max(now, bank_free, self._bus_free)
            done = data_start + burst
            self.row_hits += 1
        else:
            # Row miss: activate the bank (overlaps with other banks'
            # activity), then burst on the bus.
            ready = max(now, bank_free) + activate
            data_start = max(ready, self._bus_free)
            done = data_start + burst
            self.row_misses += 1
            self._open_row[bank] = row
        q.pop(idx)
        self._bank_free[bank] = done
        self._bus_free = done
        self.service_wait_sum += done - now
        if req.access is _STORE:
            self.writes += 1
            self._writes.append(done)
        else:
            self.reads += 1
            if issued is not None:
                issued(req, done)
            self._completions.append((done, req))

    def next_event_cycle(self, now: int) -> int:
        """Earliest cycle >= ``now`` at which :meth:`cycle` does real
        work — the DRAM half of the event engine's next-event contract.

        With a queued read or write the channel issues every cycle, so
        the answer is ``now``.  With empty queues the only future work is
        completing what is in flight: the earlier of the read head and
        the *last* write (an earlier write's completion calls nothing
        back, so it is popped lazily).  Idle cycles until then touch only
        the per-cycle utilization counters, which the event engine
        batch-accrues via :meth:`account_idle_span`."""
        if self.queue or self.write_queue:
            return now
        t = 1 << 62
        if self._completions:
            t = self._completions[0][0]
        if self._writes and self._writes[-1] < t:
            t = self._writes[-1]
        return t if t > now else now

    def account_idle_span(self, cycles: int) -> None:
        """Batch-accrue ``cycles`` quiet cycles the event engine skipped.

        Matches what :meth:`cycle` would have recorded per skipped
        cycle: both queues empty, so occupancy adds zero and the channel
        counts busy only while completions are still in flight.  The
        channel wakes no later than its read head and its last write, so
        whatever is in flight stays in flight through the whole span."""
        self.cycles_observed += cycles
        if self._completions or self._writes:
            self.busy_cycles += cycles

    @property
    def mean_queue_depth(self) -> float:
        if not self.cycles_observed:
            return 0.0
        return self.queue_occupancy_sum / self.cycles_observed

    @property
    def mean_service_cycles(self) -> float:
        total = self.reads + self.writes
        return self.service_wait_sum / total if total else 0.0

    @property
    def drained(self) -> bool:
        return not (self.queue or self.write_queue or self._completions
                    or self._writes)
