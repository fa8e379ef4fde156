"""The event step's per-SM response horizon.

The event step caps an SM's issue span one cycle past the earliest
cycle a memory response can reach *that* SM: the head of its due heap
(``MemorySubsystem.due_heaps``: reads past their L2 lookup, by the cycle
they can first be delivered) or ``now + response_lag`` for a read still
upstream of L2 (``repro.sim.fastcore``).  These tests pin the two sides
of that contract:

* the heaps stay bounded by the reads each SM has in flight and drain
  to empty, also under the flat schedulers that never read them;
* on a 4-SM machine, where every SM has its own horizon, CAPS + PAS
  runs are bit-identical under both engines when loads from several
  SMs merge into an L2 entry whose DRAM read already issued, and when
  a fault plan drops and delays responses.
"""

from __future__ import annotations

import pytest

from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.guard.faults import FaultPlan
from repro.prefetch.factory import make_prefetcher
from repro.sim.isa import ComputeOp, LoadOp, LoadSite, LoopOp, WarpProgram
from repro.sim.kernel import KernelInfo
from repro.workloads import Scale, build
from repro.workloads.generators import linear

from tests._difftools import assert_identical, fingerprint, run_engine

LINE = 128
SHARED = 1 << 24
PRIVATE = 1 << 26


def _shared_line_kernel() -> KernelInfo:
    """Every warp reads iteration ``i``'s shared line after a private
    load whose latency differs by SM, so the shared-line reads of the
    SMs reach L2 staggered: the first allocates the L2 MSHR entry, later
    ones merge before or after its DRAM read issued."""
    private = LoadSite(pc=0, pattern=linear(PRIVATE, warp_stride=LINE,
                                            iter_stride=64 * LINE))
    shared = LoadSite(pc=0, pattern=lambda ctx: (SHARED + ctx.iteration * LINE,))
    body = [ComputeOp(3), LoadOp(private), ComputeOp(2, latency=4),
            LoadOp(shared), ComputeOp(6)]
    return KernelInfo("shared-line", num_ctas=12, warps_per_cta=2,
                      program=WarpProgram(ops=[LoopOp(8, body), ComputeOp(1)]))


def four_sms(**overrides):
    """The tiny machine with four SMs, scheduled by PAS (CAPS's pair)."""
    return tiny_config(**{"num_sms": 4, "scheduler": SchedulerKind.PAS,
                          **overrides})


def _differential(kernel_fn, cfg, label, faults=None, max_cycles=None,
                  before=None):
    """CAPS under both engines, identical fingerprints; returns the
    event run, which ``before(gpu)`` may spy on."""
    caps = make_prefetcher("caps")
    gpu_ref, res_ref = run_engine(kernel_fn, cfg, "cycle", caps, max_cycles,
                                  faults)
    gpu_evt, res_evt = run_engine(kernel_fn, cfg, "event", caps, max_cycles,
                                  faults, before)
    assert_identical(fingerprint(gpu_ref, res_ref),
                     fingerprint(gpu_evt, res_evt), label)
    return gpu_evt, res_evt


def _count_late_merges(gpu, seen):
    """Append to ``seen`` the SM of every L2 merge into an entry whose
    DRAM read already issued."""
    for part in gpu.subsystem.partitions:
        mshr = part.mshr
        inner = mshr.merge

        def merge(req, mshr=mshr, inner=inner):
            if mshr._entries[req.line_addr].requests[0].due >= 0:
                seen.append(req.sm_id)
            inner(req)
        mshr.merge = merge


@pytest.mark.parametrize("sched", (SchedulerKind.LRR, SchedulerKind.GTO),
                         ids=lambda s: s.value)
def test_due_heaps_bounded_and_drained(sched):
    """No scheduler but the two-level ones reads the horizon, so the
    heaps must be pruned on delivery: after every subsystem cycle each
    SM's heap holds at most its in-flight reads (one per L1 MSHR entry
    or in-flight prefetch), and every heap is empty after the run."""
    peak = [0]

    def watch(gpu):
        sub = gpu.subsystem
        inner = sub.cycle_event

        def cycle_event(now):
            inner(now)
            for sm in gpu.sms:
                heap = sub.due_heaps[sm.sm_id]
                assert len(heap) <= len(sm.l1.mshr) + len(sm._inflight_prefetch)
                assert not heap or heap[0] in sub._due_counts[sm.sm_id]
                peak[0] = max(peak[0], len(heap))
        sub.cycle_event = cycle_event

    gpu, res = run_engine(lambda: build("BFS", Scale.TINY),
                          four_sms(scheduler=sched), "event",
                          make_prefetcher("caps"), before=watch)
    assert res.completed
    assert peak[0] > 1
    assert not any(gpu.subsystem.due_heaps)
    assert not any(gpu.subsystem._due_counts)


class TestFourSms:
    """CAPS + PAS on four SMs under both engines."""

    def test_staggered_same_line_loads_identical(self):
        late = []
        gpu, res = _differential(
            _shared_line_kernel, four_sms(), "shared-line/caps",
            before=lambda g: _count_late_merges(g, late))
        assert res.completed
        assert len(set(late)) > 1  # several SMs merged after the issue
        assert not any(gpu.subsystem.due_heaps)

    @pytest.mark.parametrize("cut", (300, 700, 1200))
    def test_truncated_identical(self, cut):
        _, res = _differential(_shared_line_kernel, four_sms(),
                               f"shared-line/caps@{cut}", max_cycles=cut)
        assert not res.completed

    def test_fault_drop_and_delay_identical(self):
        """A dropped response retires its due cycle without a delivery;
        a delayed one arrives after it.  Drops wedge warps for good, so
        the watchdog is off and the run is cut."""
        plan = FaultPlan(seed=3, drop_response_rate=0.05, max_drops=2,
                         delay_response_rate=0.3, delay_cycles=40)
        gpu, res = _differential(_shared_line_kernel, four_sms(hang_cycles=0),
                                 "shared-line/caps/faults", faults=plan,
                                 max_cycles=6000)
        assert not res.completed
        injector = gpu.subsystem.faults
        assert injector.dropped == 2 and injector.delayed > 0

    def test_bfs_delay_faults_identical(self):
        plan = FaultPlan(seed=7, delay_response_rate=0.3, delay_cycles=40)
        gpu, res = _differential(lambda: build("BFS", Scale.TINY), four_sms(),
                                 "BFS/caps/delay", faults=plan)
        assert res.completed
        assert gpu.subsystem.faults.delayed > 0
        assert not any(gpu.subsystem.due_heaps)
