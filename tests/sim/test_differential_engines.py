"""Differential harness pinning the event engine to the cycle engine.

The tentpole guarantee of the event-driven fast core
(:mod:`repro.sim.fastcore`) is *bit-identical* results: for every
workload, scheduler and prefetcher combination the fast path must
produce exactly the counters, series and snapshots of the reference
per-cycle loop.  This suite sweeps the full workload matrix at TINY
scale and compares deep fingerprints (see :mod:`tests._difftools`).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.exec import result_bytes
from repro.guard.faults import FaultPlan
from repro.obs.collector import series
from repro.prefetch.factory import make_prefetcher
from repro.sim.gpu import GPU
from repro.workloads import ALL_BENCHMARKS, Scale, build

from tests._difftools import (
    assert_identical,
    fingerprint,
    run_differential,
    run_engine,
)

SCHEDULERS = tuple(SchedulerKind)
PREFETCHERS = (None, "caps")


def _factory(name):
    return make_prefetcher(name) if name else None


class TestFullMatrix:
    """Every workload x scheduler x prefetch combination, both engines."""

    @pytest.mark.parametrize("bench", ALL_BENCHMARKS)
    @pytest.mark.parametrize("pf", PREFETCHERS, ids=["nopf", "caps"])
    def test_workloads_identical(self, bench, pf):
        cfg = tiny_config()
        res = run_differential(
            lambda: build(bench, Scale.TINY), cfg, _factory(pf),
            label=f"{bench}/{cfg.scheduler.value}/{pf or 'none'}",
        )
        assert res.completed

    @pytest.mark.parametrize("sched", SCHEDULERS, ids=lambda s: s.value)
    @pytest.mark.parametrize("pf", PREFETCHERS, ids=["nopf", "caps"])
    @pytest.mark.parametrize("bench", ("MRQ", "MM", "BFS"))
    def test_schedulers_identical(self, bench, sched, pf):
        cfg = tiny_config(scheduler=sched)
        res = run_differential(
            lambda: build(bench, Scale.TINY), cfg, _factory(pf),
            label=f"{bench}/{sched.value}/{pf or 'none'}",
        )
        assert res.completed


class TestObservability:
    """Windowed obs series must match window by window."""

    @pytest.mark.parametrize("bench", ("MRQ", "BFS"))
    def test_timeseries_identical(self, bench):
        cfg = tiny_config().with_obs(metrics=True, window=128)
        res = run_differential(
            lambda: build(bench, Scale.TINY), cfg,
            _factory("caps"), label=f"{bench}/timeseries",
        )
        assert "timeseries" in res.extra
        assert res.extra["timeseries"]["samples"]

    def test_series_reconciles_with_counters(self):
        """Windowed series summed over all windows == final counters."""
        cfg = tiny_config().with_obs(metrics=True, window=64)
        _, res = run_engine(lambda: build("MRQ", Scale.TINY), cfg, "event")
        ts = res.extra["timeseries"]
        issued = sum(series(ts, "instructions"))
        assert issued == res.instructions


class TestHangAndGuards:
    """Incomplete runs and guard services behave identically."""

    def test_hang_snapshot_identical(self):
        """A max_cycles cutoff yields the same diagnostic snapshot."""
        cfg = tiny_config(hang_cycles=0)
        gpu_ref, res_ref = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "cycle", max_cycles=400)
        gpu_evt, res_evt = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "event", max_cycles=400)
        assert not res_ref.completed and not res_evt.completed
        assert res_ref.cycles == res_evt.cycles == 400
        assert_identical(fingerprint(gpu_ref, res_ref),
                         fingerprint(gpu_evt, res_evt), "hang@400")

    def test_deep_checks_identical_every_cycle(self):
        """deep_checks is an interval-1 hook of the shared scaffold: it
        audits every cycle under either engine and changes no result."""
        cfg = tiny_config(deep_checks=True)
        gpu_ref, res_ref = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "cycle")
        gpu_evt, res_evt = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "event")
        assert res_ref.completed
        assert_identical(fingerprint(gpu_ref, res_ref),
                         fingerprint(gpu_evt, res_evt), "deep_checks")
        assert gpu_ref.invariants.cycle_checks == res_ref.cycles
        assert gpu_evt.invariants.cycle_checks == res_evt.cycles

    @pytest.mark.parametrize("max_cycles", (200, 400, 700, 1000, 1500))
    @pytest.mark.parametrize("bench", ("MRQ", "BFS", "MM"))
    def test_truncated_caps_run_identical(self, bench, max_cycles):
        """A cut with prefetches in flight (some already merged into by
        a demand) returns a diagnosable result, not an invariant trip."""
        res = run_differential(
            lambda: build(bench, Scale.TINY), tiny_config(),
            _factory("caps"), max_cycles=max_cycles,
            label=f"{bench}/caps/truncated@{max_cycles}",
        )
        assert not res.completed
        assert "hang_snapshot" in res.extra

    def test_fault_injection_identical(self):
        """Delayed responses perturb timing the same way in both engines."""
        plan = FaultPlan(seed=7, delay_response_rate=0.3, delay_cycles=40)
        cfg = tiny_config()
        gpu_ref, res_ref = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "cycle", faults=plan)
        gpu_evt, res_evt = run_engine(
            lambda: build("MRQ", Scale.TINY), cfg, "event", faults=plan)
        assert_identical(fingerprint(gpu_ref, res_ref),
                         fingerprint(gpu_evt, res_evt), "faults/delay")


def _spy(obj, name, log):
    """Log the ``now`` of every ``obj.name(gpu, now)`` call."""
    inner = getattr(obj, name)

    def wrapped(gpu, now):
        log.append(now)
        inner(gpu, now)
    setattr(obj, name, wrapped)


class TestSharedScaffold:
    """Hooks, deep checks and profiling belong to the one run loop, not
    to an engine: both steps see them at the same cycles."""

    #: (obs window, deep checks).  Without deep checks the event step
    #: runs real spans that the 7- and 64-cycle boundaries must cap;
    #: with them every cycle is a boundary.
    HOOK_MIXES = ((7, False), (64, False), (64, True))

    @staticmethod
    def _hooked_run(engine, window, deep):
        """One watched, sampled run; returns the result, the cycles at
        which each hook kind fired and the watchdog's interval."""
        cfg = dataclasses.replace(
            tiny_config(hang_cycles=800, deep_checks=deep)
            .with_obs(metrics=True, window=window),
            engine=engine)
        gpu = GPU([build("MRQ", Scale.TINY)], cfg, _factory("caps"))
        flushes, checks, audits = [], [], []
        _spy(gpu.obs, "flush", flushes)
        _spy(gpu.watchdog, "check", checks)
        _spy(gpu.invariants, "check_cycle", audits)
        res = gpu.run()
        assert res.completed
        return res, flushes, checks, audits, gpu.watchdog.check_interval

    @pytest.mark.parametrize("engine", ("cycle", "event"))
    def test_hooks_fire_at_exact_multiples(self, engine):
        for window, deep in self.HOOK_MIXES:
            res, flushes, checks, audits, every = self._hooked_run(
                engine, window, deep)
            end = res.cycles + 1
            assert flushes == list(range(window, end, window))
            assert checks == list(range(every, end, every))
            assert audits == (list(range(1, end)) if deep else [])
            # One sample per boundary, plus the final partial window.
            sampled = series(res.extra["timeseries"], "cycle")
            assert sampled[:len(flushes)] == flushes
            assert sampled[len(flushes):] in ([], [res.cycles])

    @pytest.mark.parametrize("window,deep", HOOK_MIXES)
    def test_samples_identical_under_both_engines(self, window, deep):
        ref = self._hooked_run("cycle", window, deep)[0]
        evt = self._hooked_run("event", window, deep)[0]
        assert evt.extra["timeseries"] == ref.extra["timeseries"]
        assert result_bytes(evt) == result_bytes(ref)

    def test_profile_times_the_configured_engine(self):
        cfg = tiny_config()
        _, plain = run_engine(lambda: build("MM", Scale.TINY), cfg,
                              "event", _factory("caps"))
        _, profiled = run_engine(lambda: build("MM", Scale.TINY),
                                 cfg.with_obs(profile=True),
                                 "event", _factory("caps"))
        phases = profiled.extra.pop("profile")["phases"]
        assert {"sm_cycle", "mem_cycle", "cycles"} <= set(phases)
        assert phases["cycles"]["calls"] == profiled.cycles
        # The event step ran: fewer loop iterations than cycles.
        assert phases["sm_cycle"]["calls"] < profiled.cycles
        assert result_bytes(profiled) == result_bytes(plain)


class TestEngineKnob:
    """The config knob itself: validation and default."""

    def test_default_is_event(self):
        assert tiny_config().engine == "event"

    def test_cycle_opt_in(self):
        cfg = dataclasses.replace(tiny_config(), engine="cycle")
        assert cfg.engine == "cycle"

    def test_invalid_engine_rejected(self):
        with pytest.raises(Exception):
            tiny_config(engine="warp-drive")


class TestMultiKernel:
    """Concurrent-kernel co-runs must be bit-identical too — including
    the per-kernel records (name, CTA counts, finish cycle) and the
    allocation-policy summary."""

    PAIRS = (("MRQ", "MM"), ("BFS", "CP"), ("KM", "FFT"))
    POLICIES = ("spatial", "leftover", "preempt")

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("pf", PREFETCHERS, ids=["nopf", "caps"])
    @pytest.mark.parametrize("pair", PAIRS, ids=lambda p: "+".join(p))
    def test_corun_identical(self, pair, policy, pf):
        cfg = tiny_config().with_multi(alloc_policy=policy)
        res = run_differential(
            lambda: [build(b, Scale.TINY) for b in pair], cfg,
            _factory(pf),
            label=f"{'+'.join(pair)}/{policy}/{pf or 'none'}",
        )
        assert res.completed
        assert len(res.extra["kernels"]) == 2

    @pytest.mark.parametrize("policy", POLICIES)
    def test_truncated_corun_identical(self, policy):
        """A run cut off mid-flight (CTAs still resident, preemption
        decisions half-made) must still fingerprint identically.
        """
        cfg = tiny_config().with_multi(alloc_policy=policy)
        full = run_differential(
            lambda: [build(b, Scale.TINY) for b in ("MRQ", "MM")], cfg,
            _factory("caps"), label=f"corun/{policy}/full",
        )
        cut = max(64, full.cycles // 3)
        res = run_differential(
            lambda: [build(b, Scale.TINY) for b in ("MRQ", "MM")], cfg,
            _factory("caps"), max_cycles=cut,
            label=f"corun/{policy}/truncated@{cut}",
        )
        assert not res.completed

    @pytest.mark.parametrize("pf", PREFETCHERS, ids=["nopf", "caps"])
    @pytest.mark.parametrize("bench", ("HST", "MM"))
    def test_policy_inert_for_one_kernel(self, bench, pf):
        """A launch of one kernel goes through the same distributor, and
        ``MultiConfig`` cannot touch it: every allocation policy gives
        the same fingerprint under both engine steps, with no co-run
        records."""
        runs = [(policy, engine)
                for policy in self.POLICIES for engine in ("cycle", "event")]
        fps = []
        for policy, engine in runs:
            cfg = tiny_config().with_multi(alloc_policy=policy)
            fps.append(fingerprint(*run_engine(
                lambda: build(bench, Scale.TINY), cfg, engine,
                _factory(pf))))
        assert "kernels" not in fps[0] and "multi" not in fps[0]
        for (policy, engine), fp in zip(runs[1:], fps[1:]):
            assert_identical(fps[0], fp,
                             f"{bench}/{pf or 'none'} {policy}/{engine}")
