"""Tests for the shared memory system wiring (repro.mem.subsystem)."""

import pytest

from repro.config import test_config as tiny_config
from repro.mem.request import Access, MemoryRequest
from repro.mem.subsystem import MemorySubsystem


def make_subsystem(**overrides):
    cfg = tiny_config(**overrides)
    responses = []
    sub = MemorySubsystem(cfg, cfg.num_sms, responses.append)
    return cfg, sub, responses


def req(line, sm=0, access=Access.DEMAND):
    return MemoryRequest(line_addr=line, sm_id=sm, access=access)


def run(sub, cycles, start=0):
    for t in range(start, start + cycles):
        sub.cycle(t)
    return start + cycles


class TestRequestLifecycle:
    def test_demand_read_round_trip(self):
        cfg, sub, responses = make_subsystem()
        r = req(0x8000)
        assert sub.submit(r, 0)
        run(sub, 600)
        assert responses == [r]
        assert sub.dram_reads == 1
        assert not r.l2_hit

    def test_l2_hit_on_second_access(self):
        cfg, sub, responses = make_subsystem()
        sub.submit(req(0x8000), 0)
        run(sub, 600)
        second = req(0x8000)
        sub.submit(second, 600)
        run(sub, 600, start=600)
        assert second in responses
        assert second.l2_hit
        assert sub.dram_reads == 1  # served from L2

    def test_l2_hit_faster_than_dram(self):
        cfg, sub, responses = make_subsystem()
        sub.submit(req(0x8000), 0)
        t = 0
        while not responses:
            sub.cycle(t)
            t += 1
        dram_latency = t
        second = req(0x8000)
        sub.submit(second, t)
        start = t
        while second not in responses:
            sub.cycle(t)
            t += 1
        assert (t - start) < dram_latency

    def test_mshr_merge_at_l2(self):
        cfg, sub, responses = make_subsystem()
        a, b = req(0x8000), req(0x8000)
        sub.submit(a, 0)
        sub.submit(b, 0)
        run(sub, 600)
        assert all(any(r is x for r in responses) for x in (a, b))
        assert sub.dram_reads == 1

    def test_store_is_fire_and_forget(self):
        cfg, sub, responses = make_subsystem()
        sub.submit(req(0x8000, access=Access.STORE), 0)
        run(sub, 600)
        assert responses == []
        assert sub.dram_writes == 1

    def test_partition_interleave_by_line(self):
        """``submit`` routes once: consecutive lines interleave across
        partitions, and each request is delivered to the one it names."""
        cfg, sub, _ = make_subsystem()
        n = cfg.icnt.requests_per_cycle  # all delivered in one drain
        reqs = [req(i * cfg.line_bytes) for i in range(n)]
        for r in reqs:
            assert sub.submit(r, 0)
        assert [r.part for r in reqs] == [i % cfg.l2_partitions
                                          for i in range(n)]
        assert {r.part for r in reqs} == set(range(cfg.l2_partitions))
        sub._drain_requests(cfg.icnt.latency)
        for r in reqs:
            assert r in sub.partitions[r.part].in_queue

    def test_drained(self):
        cfg, sub, responses = make_subsystem()
        assert sub.drained()
        sub.submit(req(0x8000), 0)
        assert not sub.drained()
        run(sub, 600)
        assert sub.drained()


class TestTrafficAccounting:
    def test_request_class_counters(self):
        cfg, sub, _ = make_subsystem()
        sub.submit(req(0x0000), 0)
        sub.submit(req(0x8000, access=Access.PREFETCH), 0)
        sub.submit(req(0x9000, access=Access.STORE), 0)
        assert sub.core_requests == 3
        assert sub.core_demand_requests == 1
        assert sub.core_prefetch_requests == 1
        assert sub.core_store_requests == 1

    def test_submit_refuses_when_pipe_full(self):
        cfg, sub, _ = make_subsystem()
        pushed = 0
        while sub.submit(req(pushed * 128), 0):
            pushed += 1
            if pushed > 10_000:
                pytest.fail("request pipe never filled")
        assert pushed == sub.request_pipe.capacity


class TestBackpressure:
    def test_dram_queue_backpressure_stalls_l2(self):
        """Flooding one partition's channel must not lose requests."""
        cfg, sub, responses = make_subsystem()
        n = 24
        sent = []
        t = 0
        for i in range(n):
            r = req(i * cfg.line_bytes * cfg.l2_partitions)  # same partition
            while not sub.submit(r, t):
                sub.cycle(t)
                t += 1
            sent.append(r)
        for _ in range(20000):
            if len(responses) == n:
                break
            sub.cycle(t)
            t += 1
        assert len(responses) == n
        assert sub.dram_reads == n
