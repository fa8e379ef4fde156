"""Edge-timing tests for the DRAM channel and interconnect pipe.

The event engine advances these components in batches, so the exact
cycle at which each boundary condition fires is load-bearing: a row hit
decided one cycle early, a completion popped one cycle late, or an idle
span accounted differently from the per-cycle loop would all break the
bit-identity contract.  These tests pin the boundaries directly at the
component level (the differential suite pins them end-to-end).
"""

import random

import pytest

from repro.config import DRAMConfig
from repro.mem.dram import DramChannel
from repro.mem.icnt import Pipe
from repro.mem.request import Access, MemoryRequest

SENTINEL = 1 << 62


def dcfg(**kw):
    base = dict(channels=1, queue_entries=4, banks_per_channel=4,
                row_bytes=1024, row_hit_cycles=4, row_miss_cycles=20)
    base.update(kw)
    return DRAMConfig(**base)


def req(line, access=Access.DEMAND):
    return MemoryRequest(line_addr=line, sm_id=0, access=access)


class TestRowHitBoundary:
    def test_last_line_of_row_still_hits(self):
        """Address row_bytes-128 shares the open row; row_bytes does not."""
        ch = DramChannel(dcfg(), 0)
        ch.push(req(0))
        ch.cycle(0, lambda r: None)  # opens (bank0, row0)
        same_row = req(1024 - 128)
        next_row = req(1024)  # first line of the next row (different bank)
        assert ch._bank_row(same_row.line_addr) == ch._bank_row(0)[0:1] + (0,)
        ch.push(same_row)
        ch.cycle(1, lambda r: None)
        assert ch.row_hits == 1 and ch.row_misses == 1
        ch.push(next_row)
        ch.cycle(2, lambda r: None)
        assert ch.row_hits == 1 and ch.row_misses == 2

    def test_row_hit_timing_vs_miss_timing(self):
        """A hit takes row_hit_cycles on the bus; a miss adds activate."""
        cfg = dcfg()
        ch = DramChannel(cfg, 0)
        done = []
        ch.push(req(0))
        ch.cycle(0, done.append)  # miss: done at 0 + 20
        ch.push(req(128))  # same bank, same row -> hit after the miss
        ch.cycle(1, done.append)
        # hit issues at cycle 1 but waits for the bus (free at 20), then
        # bursts for row_hit_cycles: completes at 24.
        for now in range(2, 25):
            ch.cycle(now, done.append)
        assert [r.line_addr for r in done] == [0, 128]
        assert ch.service_wait_sum == 20 + (24 - 1)

    def test_row_reopened_after_conflict(self):
        """bank0 row0 -> row1 -> row0 is three misses (row0 was closed)."""
        ch = DramChannel(dcfg(), 0)
        lines = [0, 4 * 1024, 0]  # rows 0, 1, 0 of bank 0
        for now, line in enumerate(lines):
            ch.push(req(line))
            # drain the queue one pick per cycle before pushing the next
            while ch.queue:
                ch.cycle(now, lambda r: None)
                now += 1
        assert ch.row_misses == 3 and ch.row_hits == 0


class TestFullQueues:
    def test_read_queue_overflow_raises(self):
        ch = DramChannel(dcfg(), 0)
        for i in range(4):
            ch.push(req(i * 128))
        with pytest.raises(OverflowError):
            ch.push(req(999 * 128))

    def test_write_drain_mode_at_three_quarters(self):
        """Writes jump ahead of reads once the buffer hits 3/4 full."""
        ch = DramChannel(dcfg(queue_entries=8), 0)
        ch.push(req(0))
        for i in range(6):  # 6 >= (3*8)//4: forced write drain
            ch.push(req((i + 1) * 1024, Access.STORE))
        ch.cycle(0, lambda r: None)
        assert ch.writes == 1 and ch.reads == 0

    def test_writes_wait_while_reads_pending_below_threshold(self):
        ch = DramChannel(dcfg(queue_entries=8), 0)
        ch.push(req(0))
        ch.push(req(1024, Access.STORE))
        ch.cycle(0, lambda r: None)
        assert ch.reads == 1 and ch.writes == 0

    def test_full_return_path_blocks_pipe_head(self):
        """A refusing destination (full return queue) holds the head and
        everything behind it — in-order head-of-line blocking."""
        p = Pipe(latency=0, requests_per_cycle=4, capacity=8)
        a, b = req(0), req(128)
        p.push(a, 0)
        p.push(b, 0)
        assert p.drain(0, lambda r: False) == 0
        assert len(p) == 2
        got = []
        assert p.drain(0, lambda r: got.append(r) or True) == 2
        assert got == [a, b]

    def test_pipe_overflow_raises(self):
        p = Pipe(latency=1, requests_per_cycle=1, capacity=2)
        p.push(req(0), 0)
        p.push(req(128), 0)
        assert p.full
        with pytest.raises(OverflowError):
            p.push(req(256), 0)


class TestSameCycleCompletions:
    def test_back_to_back_completions_pop_in_issue_order(self):
        """Two reads finished in the past both deliver on the next cycle
        call, oldest issue first (the completion FIFO is in issue order)."""
        ch = DramChannel(dcfg(), 0)
        a, b = req(0), req(128)  # same bank+row: miss then hit
        ch.push(a)
        ch.push(b)
        ch.cycle(0, lambda r: None)
        ch.cycle(1, lambda r: None)
        assert ch.inflight == 2
        done = []
        ch.cycle(500, done.append)  # far beyond both completion times
        assert done == [a, b]
        assert ch.drained

    def test_done_cycles_rise_in_issue_order(self):
        """Why the in-flight FIFOs need no heap: every burst starts at or
        after the bus's free cycle and then moves it to its done cycle,
        and DRAMConfig holds a burst to row_hit_cycles >= 1, so done
        cycles strictly increase in issue order.  Pinned at that floor,
        with no activate time, over a mixed stream of reads and writes
        across banks and rows."""
        rng = random.Random(5)
        ch = DramChannel(dcfg(row_hit_cycles=1, row_miss_cycles=1,
                              queue_entries=8), 0)
        issued = []
        for now in range(400):
            if rng.random() < 0.7:
                access = rng.choice((Access.DEMAND, Access.STORE,
                                     Access.PREFETCH))
                r = req(rng.randrange(64) * 128 * rng.choice((1, 8)), access)
                if access is Access.STORE and ch.can_accept_write():
                    ch.push(r)
                elif access is not Access.STORE and ch.can_accept():
                    ch.push(r)
            ch.cycle(now, lambda r: None, lambda r, done: issued.append(done))
            reads = [done for done, _ in ch._completions]
            writes = list(ch._writes)
            assert reads == sorted(set(reads))
            assert writes == sorted(set(writes))
            assert not set(reads) & set(writes)
        assert ch.reads > 50 and ch.writes > 50
        assert issued == sorted(set(issued))

    def test_completion_not_early(self):
        """A read completing at cycle D is invisible at D-1, popped at D."""
        ch = DramChannel(dcfg(), 0)
        r = req(0)
        ch.push(r)
        ch.cycle(0, lambda x: None)  # miss: done at 20
        done = []
        for now in range(1, 20):
            ch.cycle(now, done.append)
        assert done == []
        ch.cycle(20, done.append)
        assert done == [r]


class TestNextEventContract:
    def test_queued_work_means_now(self):
        ch = DramChannel(dcfg(), 0)
        ch.push(req(0))
        assert ch.next_event_cycle(7) == 7
        ch2 = DramChannel(dcfg(), 0)
        ch2.push(req(0, Access.STORE))
        assert ch2.next_event_cycle(7) == 7

    def test_inflight_only_means_completion_head(self):
        ch = DramChannel(dcfg(), 0)
        ch.push(req(0))
        ch.cycle(0, lambda r: None)  # miss issued: completes at 20
        assert ch.next_event_cycle(1) == 20
        # A stale head (already ripe) clamps to now, never the past.
        assert ch.next_event_cycle(30) == 30

    def test_writes_only_mean_last_write(self):
        """A write's completion calls nothing back: with only writes in
        flight the next event is the last write's done cycle."""
        ch = DramChannel(dcfg(), 0)
        for now, line in enumerate((0, 128, 256)):  # one row: miss, hit, hit
            ch.push(req(line, Access.STORE))
            ch.cycle(now, lambda r: None)
        assert list(ch._writes) == [20, 24, 28]
        assert ch.next_event_cycle(3) == 28
        ch.cycle(28, lambda r: None)
        assert ch.drained and ch.next_event_cycle(29) == SENTINEL

    def test_reads_and_writes_mean_earlier_of_read_head_and_last_write(self):
        ch = DramChannel(dcfg(), 0)
        ch.push(req(0, Access.STORE))
        ch.cycle(0, lambda r: None)  # write miss: done 20
        ch.push(req(128))
        ch.cycle(1, lambda r: None)  # read hit: done 24
        ch.push(req(256, Access.STORE))
        ch.cycle(2, lambda r: None)  # write hit: done 28
        assert ch.next_event_cycle(3) == 24  # not the write at 20
        done = []
        ch.cycle(24, done.append)
        assert len(done) == 1 and ch.inflight == 1
        assert ch.next_event_cycle(25) == 28
        # A last write due before the read head wins.
        ch2 = DramChannel(dcfg(), 0)
        ch2.push(req(1024, Access.STORE))  # bank 1 miss: done 20
        ch2.cycle(0, lambda r: None)
        ch2.push(req(0))  # bank 0 miss, bursts after the write: done 24
        ch2.cycle(1, lambda r: None)
        assert ch2.next_event_cycle(2) == 20

    def test_drained_means_sentinel(self):
        ch = DramChannel(dcfg(), 0)
        assert ch.next_event_cycle(5) == SENTINEL

    def test_idle_span_accrual_matches_percycle_loop(self):
        """account_idle_span(n) == n idle cycle() calls, counter for
        counter, with in-flight reads, with none, and with a write tail."""
        def idle_spin(ch, start, n):
            for now in range(start, start + n):
                ch.cycle(now, lambda r: None)

        batched, spun = DramChannel(dcfg(), 0), DramChannel(dcfg(), 0)
        for ch in (batched, spun):
            ch.push(req(0))
            ch.cycle(0, lambda r: None)  # one read in flight, queues empty
        batched.account_idle_span(10)
        idle_spin(spun, 1, 10)
        assert (batched.cycles_observed, batched.busy_cycles,
                batched.queue_occupancy_sum) == (
            spun.cycles_observed, spun.busy_cycles,
            spun.queue_occupancy_sum)
        # After draining, idle cycles are not busy under either scheme.
        for ch in (batched, spun):
            ch.cycle(50, lambda r: None)
        batched.account_idle_span(10)
        idle_spin(spun, 51, 10)
        assert (batched.cycles_observed, batched.busy_cycles) == (
            spun.cycles_observed, spun.busy_cycles)

        # A write tail: a read and two writes in flight.  The batched
        # channel wakes only at the read head (20) and the last write
        # (28), so the first write's done cycle (24) passes inside a
        # span; counters and ``inflight`` still match at every wake-up.
        def counters(ch):
            return (ch.cycles_observed, ch.busy_cycles,
                    ch.queue_occupancy_sum, ch.inflight)

        batched, spun = DramChannel(dcfg(), 0), DramChannel(dcfg(), 0)
        for ch in (batched, spun):
            ch.push(req(0))
            ch.cycle(0, lambda r: None)  # read miss: done 20
            ch.push(req(128, Access.STORE))
            ch.cycle(1, lambda r: None)  # write hit: done 24
            ch.push(req(256, Access.STORE))
            ch.cycle(2, lambda r: None)  # write hit: done 28
        last = 2
        while not batched.drained:
            wake = batched.next_event_cycle(last + 1)
            batched.account_idle_span(wake - last - 1)
            batched.cycle(wake, lambda r: None)
            for now in range(last + 1, wake + 1):
                spun.cycle(now, lambda r: None)
            assert counters(batched) == counters(spun), wake
            last = wake
        assert last == 28 and spun.drained
        batched.account_idle_span(10)
        for now in range(29, 39):
            spun.cycle(now, lambda r: None)
        assert counters(batched) == counters(spun)

    def test_pipe_boundary_delivery(self):
        """ready_at is exact: no delivery at latency-1, delivery at latency."""
        p = Pipe(latency=3, requests_per_cycle=1, capacity=4)
        r = req(0)
        p.push(r, 10)
        assert p.drain(12, lambda x: True) == 0
        got = []
        assert p.drain(13, lambda x: got.append(x) or True) == 1
        assert got == [r]
