"""Property-based differential tests: event engine vs reference loop.

The pinned matrix in ``tests/sim/test_differential_engines.py`` covers
the curated workloads; this suite closes the gap with *generated*
programs and configurations.  Hypothesis builds random small kernels
(compute runs, strided and indirect loads, stores, nested loops) and
random fault-free machine configurations, and every sample must produce
bit-identical fingerprints under both engines (see
:mod:`tests._difftools`).
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.prefetch.factory import make_prefetcher
from repro.sim.isa import (
    ComputeOp,
    LoadOp,
    LoadSite,
    LoopOp,
    StoreOp,
    WarpProgram,
)
from repro.sim.kernel import KernelInfo
from repro.workloads.generators import indirect, linear

from tests._difftools import run_differential

LINE = 128


@st.composite
def kernels(draw):
    """A random small kernel mixing the op/site shapes the SM supports."""
    alloc_counter = [0]

    def fresh_site(in_loop):
        alloc_counter[0] += 1
        base = (1 << 24) + alloc_counter[0] * (1 << 22)
        kind = draw(st.integers(0, 3))
        if kind == 0:
            pat = linear(base, warp_stride=LINE)
            ind = False
        elif kind == 1:
            pat = linear(base, warp_stride=draw(st.sampled_from([64, 256, 512])),
                         iter_stride=LINE if in_loop else 0)
            ind = False
        elif kind == 2:
            pat = linear(base, warp_stride=LINE, lines_per_access=2)
            ind = False
        else:
            pat = indirect(base, region_lines=128,
                           requests=draw(st.integers(1, 4)),
                           seed=draw(st.integers(0, 1000)))
            ind = True
        return LoadSite(pc=0, pattern=pat, indirect=ind)

    def ops(depth):
        out = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.integers(0, 3 if depth < 1 else 2))
            if kind == 0:
                out.append(ComputeOp(draw(st.integers(1, 12)),
                                     latency=draw(st.sampled_from([1, 4, 8]))))
            elif kind == 1:
                out.append(LoadOp(fresh_site(depth > 0),
                                  use_distance=draw(st.sampled_from([0, 0, 3]))))
            elif kind == 2:
                out.append(StoreOp(fresh_site(depth > 0)))
            else:
                out.append(LoopOp(draw(st.integers(1, 2)), ops(depth + 1)))
        return out

    program_ops = ops(0)
    program_ops.append(ComputeOp(1))
    return KernelInfo(
        "prop",
        num_ctas=draw(st.integers(1, 6)),
        warps_per_cta=draw(st.integers(1, 4)),
        program=WarpProgram(ops=program_ops),
    )


@st.composite
def configs(draw):
    """A random fault-free configuration around the tiny baseline.

    Small L2 MSHR files and interconnect queues let generated kernels
    reach the event step's backpressure wedges (MSHR-full partitions,
    SMs behind a full request pipe).  One, two or four SMs: each SM has
    its own response horizon in the event step.  The two L2 partitions
    stay a multiple of the two DRAM channels."""
    base = tiny_config(
        num_sms=draw(st.sampled_from([1, 2, 4])),
        scheduler=draw(st.sampled_from(list(SchedulerKind))),
        ready_queue_size=draw(st.integers(2, 6)),
        max_cycles=400_000,
    )
    return dataclasses.replace(
        base,
        l2=dataclasses.replace(base.l2, mshr_entries=draw(st.integers(1, 8))),
        icnt=dataclasses.replace(base.icnt,
                                 queue_depth=draw(st.integers(1, 8))),
    )


def _rebuild(kernel):
    """Fresh KernelInfo per engine run (cursor-independent program)."""
    return KernelInfo(kernel.name, kernel.num_ctas, kernel.warps_per_cta,
                      WarpProgram(ops=kernel.program.ops))


def _clone_ops(ops):
    """Deep-rebuild an op tree with fresh sites (pcs unassigned).

    Multi-kernel virtualization rebases programs *in place* (site pcs,
    pattern closures, the id-keyed pc map), so each engine run of a
    co-schedule needs genuinely new op/site objects — ``deepcopy``
    would carry the stale ``id()``-keyed pc table along.
    """
    out = []
    for op in ops:
        if isinstance(op, ComputeOp):
            out.append(ComputeOp(op.count, latency=op.latency))
        elif isinstance(op, LoadOp):
            out.append(LoadOp(
                LoadSite(pc=0, pattern=op.site.pattern,
                         indirect=op.site.indirect, name=op.site.name),
                use_distance=op.use_distance))
        elif isinstance(op, StoreOp):
            out.append(StoreOp(
                LoadSite(pc=0, pattern=op.site.pattern,
                         indirect=op.site.indirect, name=op.site.name)))
        else:
            out.append(LoopOp(op.trips, _clone_ops(op.body)))
    return out


def _fresh(kernel):
    """A virtualization-safe copy of a generated kernel."""
    return KernelInfo(kernel.name, kernel.num_ctas, kernel.warps_per_cta,
                      WarpProgram(ops=_clone_ops(kernel.program.ops)))


class TestGeneratedKernelsIdentical:
    @given(kernels(), configs())
    @settings(max_examples=15, deadline=None)
    def test_random_kernel_random_config(self, kernel, cfg):
        res = run_differential(lambda: _rebuild(kernel), cfg,
                               label=f"prop/{cfg.scheduler.value}")
        assert res.completed

    @given(kernels(), configs())
    @settings(max_examples=10, deadline=None)
    def test_random_kernel_with_caps(self, kernel, cfg):
        res = run_differential(
            lambda: _rebuild(kernel), cfg, make_prefetcher("caps"),
            label=f"prop-caps/{cfg.scheduler.value}",
        )
        assert res.completed

    @given(kernels(), st.integers(64, 512))
    @settings(max_examples=8, deadline=None)
    def test_random_kernel_truncated_run(self, kernel, cutoff):
        """Even a mid-flight cutoff leaves both engines in the same state."""
        cfg = tiny_config()
        run_differential(lambda: _rebuild(kernel), cfg,
                         make_prefetcher("caps"),
                         max_cycles=cutoff, label=f"prop-cut@{cutoff}")


class TestGeneratedCorunsIdentical:
    """Random kernel *pairs* co-scheduled under a random allocation
    policy: bit-identical engines, and one record per kernel (name, CTA
    counts, finish cycle) whose CTA counts match each kernel's grid
    (the guard checks the distributor's; the asserts pin the exported
    view).

    Kernels are deep-rebuilt per engine run (``_fresh``) because
    virtualization rebases programs in place.
    """

    POLICIES = st.sampled_from(("spatial", "leftover", "preempt"))

    @given(kernels(), kernels(), POLICIES)
    @settings(max_examples=10, deadline=None)
    def test_random_pair_random_policy(self, ka, kb, policy):
        cfg = tiny_config().with_multi(alloc_policy=policy)
        res = run_differential(
            lambda: [_fresh(ka), _fresh(kb)], cfg,
            label=f"prop-corun/{policy}",
        )
        assert res.completed
        recs = res.extra["kernels"]
        assert len(recs) == 2
        assert [r["ctas_executed"] for r in recs] == \
            [r["num_ctas"] for r in recs]

    @given(kernels(), kernels(), POLICIES)
    @settings(max_examples=6, deadline=None)
    def test_random_pair_with_caps(self, ka, kb, policy):
        cfg = tiny_config().with_multi(alloc_policy=policy)
        res = run_differential(
            lambda: [_fresh(ka), _fresh(kb)], cfg,
            make_prefetcher("caps"),
            label=f"prop-corun-caps/{policy}",
        )
        assert res.completed
