"""Concurrent-kernel subsystem: policies, accounting, ANTT pin, cache keys.

Covers the multi-kernel scheduling subsystem end to end:

* kernel virtualization (disjoint PCs and address spaces);
* the three inter-kernel CTA allocation policies and the runtime
  predictor behind ``preempt``;
* the distributor's admission control;
* the per-kernel records of ``extra["kernels"]``: name, CTA counts and
  finish cycle, with CTA conservation also enforced at runtime by
  ``repro.guard``;
* the headline acceptance claim: preemptive SRTF allocation beats the
  static spatial partition on ANTT for a memory-intensive ×
  compute-bound pair;
* exec-cache key separation (single-kernel cells can never be served
  for co-run requests, policies fingerprint distinctly) and benchmark
  alias normalization, on both the driver and serve-protocol paths.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import test_config as tiny_config
from repro.errors import ConfigError
from repro.exec.cache import key_fingerprint
from repro.prefetch.factory import make_prefetcher
from repro.sim.cta import CTADistributor, RuntimePredictor, make_policy
from repro.sim.gpu import GPU
from repro.sim.multi import (
    PC_STRIDE,
    MultiKernelApp,
    antt_stp,
    simulate_corun,
)
from repro.sim.sm import KERNEL_ADDR_SHIFT
from repro.workloads import (
    CORUN_PAIRS,
    DEFAULT_PAIR,
    Scale,
    build,
    corun_name,
    normalize_benchmark,
)

from tests._difftools import reset_uid_counters


def _kernels(*benches, scale=Scale.TINY):
    return [build(b, scale) for b in benches]


def _corun(benches, policy, pf=None, config=None, max_cycles=None):
    reset_uid_counters()
    cfg = (config or tiny_config()).with_multi(alloc_policy=policy)
    factory = make_prefetcher(pf) if pf else None
    gpu = GPU(_kernels(*benches), cfg, factory)
    return gpu, gpu.run(max_cycles=max_cycles)


def _solo_cycles(bench, config=None):
    from repro.sim.gpu import simulate

    reset_uid_counters()
    return simulate(build(bench, Scale.TINY),
                    config or tiny_config()).cycles


# ------------------------------------------------------------ virtualization

class TestVirtualization:
    def test_kernel_pcs_and_addresses_disjoint(self):
        app = MultiKernelApp(_kernels("MRQ", "MM"))
        k0, k1 = app.kernels
        assert k0.kernel_id == 0 and k1.kernel_id == 1
        assert all(pc < PC_STRIDE for pc in k0.program._code.pc)
        assert all(pc >= PC_STRIDE for pc in k1.program._code.pc)
        # Load sites carry the rebased pcs too.
        assert all(s.pc >= PC_STRIDE for s in k1.program.load_sites())
        assert all(s.pc < PC_STRIDE for s in k0.program.load_sites())

    def test_app_shim_looks_like_one_kernel(self):
        app = MultiKernelApp(_kernels("MRQ", "MM"))
        assert app.name == "MRQ+MM"
        assert app.num_ctas == sum(k.num_ctas for k in app.kernels)
        assert len(app.kernels) == 2

    def test_empty_app_rejected(self):
        with pytest.raises(ValueError):
            MultiKernelApp([])

    def test_addresses_identify_owner(self):
        """Kernel id is recoverable from any line address: every request
        a co-run submits carries its issuing kernel's address tag."""
        reset_uid_counters()
        cfg = tiny_config().with_multi(alloc_policy="leftover")
        gpu = GPU(_kernels("MRQ", "MM"), cfg)
        submit = gpu.subsystem.submit
        tags = []

        def spy(req, now):
            tags.append((req.kernel_id, req.line_addr >> KERNEL_ADDR_SHIFT))
            return submit(req, now)

        gpu.subsystem.submit = spy
        assert gpu.run().completed
        assert {kid for kid, _ in tags} == {0, 1}
        assert all(kid == tag for kid, tag in tags)


# ----------------------------------------------------------------- policies

class TestPolicies:
    def test_spatial_partitions_every_sm(self):
        cfg = tiny_config()
        policy = make_policy("spatial", _kernels("MRQ", "MM"), cfg)
        owners = [policy.order(s, None)[0] for s in range(cfg.num_sms)]
        assert set(owners) == {0, 1}

    def test_spatial_needs_one_sm_per_kernel(self):
        cfg = dataclasses.replace(tiny_config(), num_sms=1)
        with pytest.raises(ConfigError):
            make_policy("spatial", _kernels("MRQ", "MM"), cfg)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("round-robin", _kernels("MRQ", "MM"),
                        tiny_config())

    def test_leftover_prefers_kernel_zero(self):
        policy = make_policy("leftover", _kernels("MRQ", "MM"),
                             tiny_config())
        assert tuple(policy.order(0, None)) == (0, 1)

    def test_predictor_learns_from_observations(self):
        cfg = tiny_config()
        pred = RuntimePredictor(_kernels("MRQ", "MM"), cfg)
        prior = pred.estimate[0]
        assert prior > 0
        pred.observe(0, 100.0)
        assert pred.estimate[0] == 100.0  # first observation replaces
        pred.observe(0, 200.0)
        a = cfg.multi.predictor_ema
        assert pred.estimate[0] == pytest.approx(a * 200.0
                                                 + (1 - a) * 100.0)
        assert pred.estimate[1] == pytest.approx(
            RuntimePredictor(_kernels("MRQ", "MM"), cfg).estimate[1])


# -------------------------------------------------------------- distributor

class TestDistributor:
    def _dist(self, policy="leftover"):
        cfg = tiny_config().with_multi(alloc_policy=policy)
        app = MultiKernelApp(_kernels("MRQ", "MM"))
        return cfg, app, CTADistributor(app.kernels, cfg)

    def test_initial_fill_respects_limits(self):
        cfg, app, dist = self._dist()
        grants = dist.initial_fill()
        assert grants
        for sm_id in range(cfg.num_sms):
            assert sum(dist.active[sm_id]) <= cfg.max_ctas_per_sm
            assert dist.resident_warps[sm_id] <= cfg.max_warps_per_sm
        for sm_id, kid, _ in grants:
            assert 0 <= sm_id < cfg.num_sms
            assert 0 <= kid < len(app.kernels)

    def test_initial_fill_only_once(self):
        _, _, dist = self._dist()
        dist.initial_fill()
        with pytest.raises(RuntimeError):
            dist.initial_fill()

    def test_finish_refills_and_accounts(self):
        _, _, dist = self._dist()
        grants = dist.initial_fill()
        sm_id, kid, _ = grants[0]
        before = dist.remaining
        regrants = dist.on_cta_finish(sm_id, kid, duration=50, now=100)
        assert dist.finished_ctas[kid] == 1
        assert dist.remaining <= before  # grants only consume the pool
        for g_kid, cta_id in regrants:
            assert cta_id >= 0 and 0 <= g_kid < 2

    def test_finish_of_a_kernel_the_sm_does_not_hold_refused(self):
        """Under ``spatial`` SM 0 hosts only kernel 0, so retiring a
        kernel-1 CTA there is a bookkeeping error, not a refill."""
        _, _, dist = self._dist("spatial")
        dist.initial_fill()
        assert dist.active[0][1] == 0
        with pytest.raises(RuntimeError):
            dist.on_cta_finish(0, 1, duration=50, now=100)


# ------------------------------------------------------ per-kernel records

class TestPerKernelRecords:
    @pytest.mark.parametrize("policy", ("spatial", "leftover", "preempt"))
    def test_records_conserve_to_globals(self, policy):
        gpu, res = _corun(("MRQ", "MM"), policy, pf="caps")
        assert res.completed
        ks = res.extra["kernels"]
        for k in ks:
            assert set(k) == {"kernel_id", "name", "num_ctas",
                              "finish_cycle", "finished", "ctas_executed"}
        assert [k["kernel_id"] for k in ks] == [0, 1]
        assert [k["name"] for k in ks] == ["MRQ", "MM"]
        assert all(k["finished"] for k in ks)
        # CTA conservation from the user-visible records (the guard
        # checks the distributor against the SMs).
        assert sum(k["ctas_executed"] for k in ks) == \
            sum(k["num_ctas"] for k in ks) == gpu.app.num_ctas
        # Finish cycles bound the run; the run ends one cycle after the
        # last kernel drains.
        assert max(k["finish_cycle"] for k in ks) == res.cycles - 1

    def test_multi_summary(self):
        _, res = _corun(("MRQ", "MM"), "preempt")
        m = res.extra["multi"]
        assert m["alloc_policy"] == "preempt"
        assert m["num_kernels"] == 2
        assert m["grants"] > 0
        assert len(m["finish_cycles"]) == 2
        assert len(m["predictor_estimates"]) == 2

    def test_three_kernel_corun(self):
        """The subsystem is N-kernel, not pairwise."""
        gpu, res = _corun(("MRQ", "MM", "CP"), "leftover")
        assert res.completed
        ks = res.extra["kernels"]
        assert len(ks) == 3
        assert sum(k["ctas_executed"] for k in ks) == gpu.app.num_ctas


# ------------------------------------------------------------- hard spans

class TestHardSpans:
    def test_corun_opens_hard_spans(self, monkeypatch):
        """A co-run SM takes the event step's one hard-span rule: an
        MRQ+MM co-run under ``preempt`` batches response-tolerant issue
        spans like any single-kernel run."""
        from repro.sim import fastcore

        dispatch = fastcore._dispatch
        hard = []

        def counting(sm, now, hook_at, sub):
            dispatch(sm, now, hook_at, sub)
            hard.append(sm._span_hard)

        monkeypatch.setattr(fastcore, "_dispatch", counting)
        cfg = dataclasses.replace(tiny_config(), engine="event")
        _, res = _corun(("MRQ", "MM"), "preempt", config=cfg)
        assert res.completed
        assert any(hard)


# ------------------------------------------------------------- ANTT / STP

class TestMetrics:
    def test_antt_stp_math(self):
        t = antt_stp([200, 300], [100, 300])
        assert t["antt"] == pytest.approx((2.0 + 1.0) / 2)
        assert t["stp"] == pytest.approx(0.5 + 1.0)

    def test_antt_stp_validation(self):
        with pytest.raises(ValueError):
            antt_stp([100], [100, 200])
        with pytest.raises(ValueError):
            antt_stp([0, 100], [100, 100])

    def test_preempt_beats_spatial_on_antt(self):
        """Acceptance pin: for the curated memory × compute pair,
        CTA-boundary preemptive SRTF allocation yields better (lower)
        ANTT than the static spatial partition — the short compute
        kernel drains early instead of idling its partition."""
        pair = DEFAULT_PAIR
        benches = (pair.memory, pair.compute)
        solo = [_solo_cycles(b) for b in benches]
        antts = {}
        for policy in ("spatial", "preempt"):
            _, res = _corun(benches, policy)
            assert res.completed
            co = [k["finish_cycle"] for k in res.extra["kernels"]]
            antts[policy] = antt_stp(co, solo)["antt"]
        assert antts["preempt"] < antts["spatial"], antts

    def test_corun_pairs_are_canonical(self):
        for pair in CORUN_PAIRS:
            assert pair.name == normalize_benchmark(pair.name)
        assert corun_name("mrq", "sgemm") == "MRQ+MM"


# ----------------------------------------------------- cache-key regression

class TestCacheKeys:
    """A cached single-kernel result must never be served for a co-run
    request (and vice versa), and the allocation policy must fingerprint."""

    def test_corun_and_single_keys_differ(self):
        from repro.analysis.driver import make_key

        cfg = tiny_config()
        single = make_key("MRQ", "none", config=cfg, scale=Scale.TINY)
        corun = make_key("MRQ+MM", "none", config=cfg, scale=Scale.TINY)
        assert single.benchmark == "MRQ"
        assert corun.benchmark == "MRQ+MM"
        assert key_fingerprint(single) != key_fingerprint(corun)

    def test_alloc_policy_changes_fingerprint(self):
        from repro.analysis.driver import make_key

        keys = [
            make_key("MRQ+MM", "none", scale=Scale.TINY,
                     config=tiny_config().with_multi(alloc_policy=p))
            for p in ("spatial", "leftover", "preempt")
        ]
        fps = {key_fingerprint(k) for k in keys}
        assert len(fps) == 3

    def test_aliases_normalize_to_one_cell(self):
        from repro.analysis.driver import make_key

        cfg = tiny_config()
        a = make_key("mrq+sgemm", "none", config=cfg, scale=Scale.TINY)
        b = make_key("MRQ+MM", "none", config=cfg, scale=Scale.TINY)
        assert a == b

    def test_unknown_corun_part_rejected(self):
        from repro.analysis.driver import make_key

        with pytest.raises(KeyError):
            make_key("MRQ+NOPE", "none", scale=Scale.TINY)

    def test_serve_protocol_folds_multi_into_key(self):
        from repro.serve.protocol import parse_request, request_to_key

        def req(bench, overrides=None):
            payload = {"v": 1, "id": "t", "op": "simulate",
                       "benchmark": bench, "scale": "tiny",
                       "preset": "test"}
            if overrides:
                payload["overrides"] = overrides
            return parse_request(payload)

        single = request_to_key(req("MRQ"))
        corun = request_to_key(req("mrq+sgemm"))
        assert corun.benchmark == "MRQ+MM"
        assert key_fingerprint(single) != key_fingerprint(corun)
        preempt = request_to_key(
            req("MRQ+MM", {"multi": {"alloc_policy": "preempt"}}))
        assert key_fingerprint(preempt) != key_fingerprint(corun)

    def test_serve_protocol_rejects_unknown_corun(self):
        from repro.errors import BadRequestError
        from repro.serve.protocol import parse_request

        with pytest.raises(BadRequestError):
            parse_request({"v": 1, "id": "t", "op": "simulate",
                           "benchmark": "MRQ+NOPE"})


# ------------------------------------------------------------ exec routing

class TestExecRouting:
    def test_engine_runs_corun_cells(self):
        """The execution engine routes "A+B" cells to simulate_corun and
        memoizes them separately from the solo cells."""
        from repro.exec import ExecutionEngine
        from repro.analysis.driver import make_key

        engine = ExecutionEngine()
        cfg = tiny_config().with_multi(alloc_policy="preempt")
        key = make_key("MRQ+MM", "none", config=cfg, scale=Scale.TINY)
        res = engine.run(key)
        assert res.completed
        assert len(res.extra["kernels"]) == 2
        assert res.extra["multi"]["alloc_policy"] == "preempt"
        assert engine.run(key) is res  # memoized

    def test_simulate_corun_entry_point(self):
        reset_uid_counters()
        res = simulate_corun(_kernels("MRQ", "MM"), tiny_config())
        assert res.completed
        assert res.kernel == "MRQ+MM"
