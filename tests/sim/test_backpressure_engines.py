"""Differential tests on a congested machine, where the event step's
backpressure wedges fire.

The event step lets an L2 partition whose MSHR is full sleep until the
next fill on it, and an SM whose miss / store / prefetch queues sit
behind a full request pipe sleep until the subsystem's next event; the
skipped cycles' stall counters and re-probes are charged lazily
(``repro.mem.subsystem``, ``repro.sim.fastcore``).  The tiny test
machine reaches those states only now and then.  Here the L2 has two
MSHR entries, the interconnect two-entry queues and there is one DRAM
channel, so every case reaches both — and asserts that it did, so the
suite cannot pass vacuously.

A DRAM write's completion calls nothing back, so a channel wakes for
its read head and its *last* write only; earlier writes linger after
their done cycle until the channel's next cycle or ``sync_accounting``
drops them.  Samples and cuts inside such a write tail must still read
the reference's utilization and queue depth.

A third wedge needs many SMs: a partition whose head read is pending on
an L2 MSHR entry already at its merge limit sleeps until that line's
fill.  Ten SMs reading one line at once reach it (one allocation, seven
merges, two heads frozen).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import ObsConfig
from repro.config import test_config as tiny_config
from repro.guard.faults import FaultPlan
from repro.obs.collector import series
from repro.prefetch.factory import make_prefetcher
from repro.sim.isa import ComputeOp, LoadOp, LoadSite, LoopOp, WarpProgram
from repro.sim.kernel import KernelInfo
from repro.workloads import Scale, build

from tests._difftools import (
    assert_identical,
    fingerprint,
    run_engine,
)

CELLS = (("HST", None), ("HST", "caps"), ("BFS", "caps"))
CELL_IDS = ["HST/none", "HST/caps", "BFS/caps"]
#: Cut points for truncated runs: most of them land inside a wedge.
CUTS = (300, 700, 1500, 3000, 6000)


def congested(**overrides):
    base = tiny_config(**overrides)
    return dataclasses.replace(
        base,
        l2=dataclasses.replace(base.l2, mshr_entries=2),
        icnt=dataclasses.replace(base.icnt, queue_depth=2),
        dram=dataclasses.replace(base.dram, channels=1),
    )


def _factory(name):
    return make_prefetcher(name) if name else None


def _assert_backpressure(gpu) -> None:
    """Both wedges had something to do: an L2 partition stalled and the
    request pipe filled to capacity."""
    sub = gpu.subsystem
    assert any(part.stall_cycles for part in sub.partitions)
    assert sub.request_pipe.peak_occupancy == sub.request_pipe.capacity


def _differential(bench, pf, cfg, max_cycles=None, faults=None,
                  kernel_fn=None, spy=None):
    """Run both engines; assert identical fingerprints and return the
    event run's ``(gpu, result)``.  ``spy(gpu)`` is attached to the
    event run only."""
    kernel_fn = kernel_fn or (lambda: build(bench, Scale.TINY))
    runs = [run_engine(kernel_fn, cfg, engine, _factory(pf), max_cycles,
                       faults, before=spy if engine == "event" else None)
            for engine in ("cycle", "event")]
    (gpu_ref, res_ref), (gpu_evt, res_evt) = runs
    assert_identical(fingerprint(gpu_ref, res_ref),
                     fingerprint(gpu_evt, res_evt),
                     f"{bench}/{pf or 'none'}@{max_cycles}")
    return gpu_evt, res_evt


@pytest.mark.parametrize("bench,pf", CELLS, ids=CELL_IDS)
class TestCongested:
    def test_identical(self, bench, pf):
        gpu, res = _differential(bench, pf, congested())
        assert res.completed
        _assert_backpressure(gpu)

    def test_delay_faults_identical(self, bench, pf):
        plan = FaultPlan(seed=7, delay_response_rate=0.3, delay_cycles=40)
        gpu, res = _differential(bench, pf, congested(), faults=plan)
        assert res.completed
        _assert_backpressure(gpu)

    def test_deep_checks_identical(self, bench, pf):
        gpu, res = _differential(bench, pf, congested(deep_checks=True))
        assert res.completed
        assert gpu.invariants.cycle_checks == res.cycles
        _assert_backpressure(gpu)

    def test_truncated_identical(self, bench, pf):
        """Cuts that land inside a wedge settle it exactly."""
        open_at_cut = 0
        for cut in CUTS:
            gpu, res = _differential(bench, pf, congested(), max_cycles=cut)
            assert not res.completed
            open_at_cut += any(part.wedged_from >= 0
                               for part in gpu.subsystem.partitions)
        assert open_at_cut


def test_corun_identical():
    cfg = congested().with_multi(alloc_policy="preempt")
    runs = [run_engine(
                lambda: [build(b, Scale.TINY) for b in ("HST", "BFS")],
                cfg, engine, make_prefetcher("caps"))
            for engine in ("cycle", "event")]
    (gpu_ref, res_ref), (gpu_evt, res_evt) = runs
    assert_identical(fingerprint(gpu_ref, res_ref),
                     fingerprint(gpu_evt, res_evt), "HST+BFS/congested")
    assert res_evt.completed
    _assert_backpressure(gpu_evt)


@pytest.mark.parametrize("pf", (None, "caps"), ids=("HST/none", "HST/caps"))
def test_write_tail_samples_identical(pf):
    """Window samples and cuts inside write tails match the cycle step:
    ``busy_cycles``, ``cycles_observed``, the ``dram_queue_depth`` column
    and the run end (all in the fingerprint).  Asserts that a sync did
    drop a finished write and that a cut left writes in flight."""
    cfg = congested(obs=ObsConfig(metrics=True, window=50))
    dropped = []

    def count_dropped(gpu):
        sub = gpu.subsystem
        sync = sub.sync_accounting

        def counting(now):
            before = sum(len(ch._writes) for ch in sub.channels)
            sync(now)
            dropped.append(before - sum(len(ch._writes) for ch in sub.channels))
        sub.sync_accounting = counting

    in_tail = 0
    for cut in (None,) + CUTS:
        gpu, res = _differential("HST", pf, cfg, max_cycles=cut,
                                 spy=count_dropped)
        assert any(series(res.extra["timeseries"], "dram_queue_depth"))
        in_tail += any(ch._writes for ch in gpu.subsystem.channels)
    assert in_tail
    assert any(dropped)


def _one_line_kernel():
    """Ten one-warp CTAs; iteration ``i`` of every warp reads line ``i``."""
    site = LoadSite(pc=0, pattern=lambda ctx: ((1 << 24) + ctx.iteration * 128,))
    body = [LoadOp(site), ComputeOp(2)]
    return KernelInfo("one-line", num_ctas=10, warps_per_cta=1,
                      program=WarpProgram(ops=[LoopOp(4, body), ComputeOp(1)]))


@pytest.mark.parametrize("cut", (None, 30, 125))
def test_merge_limit_wedge_identical(cut):
    """The merge-limit wedge fires (a partition froze with its MSHR not
    full, so on a full entry) and settles exactly, also at a cut inside
    it."""
    cfg = tiny_config(num_sms=10)
    gpu, res = _differential("one-line", None, cfg, max_cycles=cut,
                             kernel_fn=_one_line_kernel)
    l2 = gpu.subsystem.partitions
    assert any(part.stall_cycles for part in l2)
    assert all(part.mshr.peak_occupancy < part.mshr.capacity for part in l2)
    if cut is None:
        assert res.completed
    else:
        assert any(part.wedged_from >= 0 for part in l2)
