"""Fault-injection chaos tests: seeded plans are deterministic, and the
retry/timeout/degradation paths they target actually fire."""

import pytest

from repro.config import test_config as tiny_config
from repro.errors import (
    FailureKind,
    IncompleteRunError,
    InjectedWorkerCrash,
    classify,
    is_transient,
)
from repro.exec import EventLog, ExecutionEngine, ResultCache, RunKey
from repro.guard.faults import (FaultPlan, MemoryFaultInjector,
                                ServeFaultInjector)
from repro.mem.request import Access, MemoryRequest
from repro.prefetch.factory import default_scheduler_for
from repro.sim.gpu import simulate
from repro.workloads import Scale
from tests.conftest import make_stream_kernel


def make_key(bench="SCN", engine="none", **overrides):
    cfg = tiny_config(**overrides).with_scheduler(
        default_scheduler_for(engine))
    return RunKey(bench, engine, Scale.TINY, cfg)


# ------------------------------------------------------------- determinism
def test_streams_are_deterministic_and_independent():
    plan = FaultPlan(seed=42)
    a = [plan.stream("mem.drop").random() for _ in range(3)]
    b = [plan.stream("mem.drop").random() for _ in range(3)]
    assert a == b  # same label -> same sequence, every process
    assert a != [plan.stream("mem.delay").random() for _ in range(3)]
    assert a != [FaultPlan(seed=43).stream("mem.drop").random()
                 for _ in range(3)]


def test_one_plan_pins_every_stream():
    """The first 32 fates of every consumer of one seeded plan, pinned:
    a given ``--chaos-seed`` must keep killing the same victim on the
    same request, and every stream label keeps its sequence."""
    plan = FaultPlan(seed=7, drop_response_rate=0.2, delay_response_rate=0.3,
                     corrupt_cache_rate=0.25, kill_backend=1,
                     kill_after_requests=5, slow_request_rate=0.3,
                     blackhole_rate=0.2, torn_response_rate=0.3)
    memory = MemoryFaultInjector(plan)
    mark = {"deliver": ".", "drop": "x", "delay": "~"}
    assert "".join(mark[memory.on_response(_req())] for _ in range(32)) \
        == ".~~.~...~x.x.~..~~~xxx..x.x.~..x"
    rng = plan.stream("cache")
    assert "".join("c" if plan.should_corrupt_cache(rng) else "."
                   for _ in range(32)) == "c....cc.c...c....c.c...c..c....."
    mark = {"serve": ".", "slow": "s", "blackhole": "b", "kill": "K"}
    expected = {0: ("....sss..s.b.bb.b.....ss.s..ss.b",
                    ".....t..t.....t..t.tt...ttt..t.."),
                1: ("..ssK.....ss..bb..bs.....bb..ss.",
                    ".tt...t.t.....tt..tttt.......tt.")}
    for index, (fates, tears) in expected.items():
        serve = ServeFaultInjector(plan, index)
        assert "".join(mark[serve.on_simulate()] for _ in range(32)) == fates
        assert "".join("." if serve.tear(b"0123456789\n") is None else "t"
                       for _ in range(32)) == tears


def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(drop_response_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(crash_attempts=-1)
    with pytest.raises(ValueError):
        FaultPlan(delay_cycles=0)


def test_affects_simulation():
    assert not FaultPlan(crash_attempts=3, corrupt_cache_rate=1.0)\
        .affects_simulation
    assert FaultPlan(drop_response_rate=0.1).affects_simulation
    assert FaultPlan(delay_response_rate=0.1).affects_simulation


# --------------------------------------------------------------- injector
def _req(uid_offset=0):
    return MemoryRequest(line_addr=0x1000, sm_id=0, access=Access.DEMAND)


def test_injector_respects_max_drops():
    inj = MemoryFaultInjector(FaultPlan(drop_response_rate=1.0, max_drops=2))
    fates = [inj.on_response(_req()) for _ in range(4)]
    assert fates == ["drop", "drop", "deliver", "deliver"]
    assert inj.dropped == 2


def test_injector_delays_each_response_once():
    inj = MemoryFaultInjector(FaultPlan(delay_response_rate=1.0))
    req = _req()
    assert inj.on_response(req) == "delay"
    assert req.fault_delayed
    assert inj.on_response(req) == "deliver"
    assert inj.delayed == 1


def test_delayed_run_completes_and_conserves():
    """Delays slow the machine but never wedge it: the run completes and
    the end-of-run conservation audit (inside simulate) stays green."""
    plan = FaultPlan(seed=5, delay_response_rate=0.4, delay_cycles=300)
    kernel = make_stream_kernel()
    healthy = simulate(kernel, tiny_config())
    delayed = simulate(kernel, tiny_config(), faults=plan)
    assert delayed.completed
    assert delayed.instructions == healthy.instructions
    assert delayed.cycles > healthy.cycles


def test_same_plan_same_result():
    plan = FaultPlan(seed=9, delay_response_rate=0.3)
    kernel = make_stream_kernel()
    a = simulate(kernel, tiny_config(), faults=plan)
    b = simulate(kernel, tiny_config(), faults=plan)
    assert a.cycles == b.cycles and a.instructions == b.instructions


# ------------------------------------------------------------ worker crash
def test_crash_plan_is_retried_inline():
    plan = FaultPlan(seed=1, crash_attempts=2)
    events = EventLog()
    engine = ExecutionEngine(retries=2, events=events, faults=plan)
    result = engine.run(make_key())
    assert result.completed
    assert events.count("retry") == 2
    assert events.count("finished") == 1


def test_crash_plan_exhausts_budget():
    plan = FaultPlan(seed=1, crash_attempts=10)
    events = EventLog()
    engine = ExecutionEngine(retries=1, events=events, faults=plan)
    with pytest.raises(InjectedWorkerCrash):
        engine.run(make_key())
    assert events.count("failed") == 1


def test_permanent_failure_not_retried():
    """IncompleteRunError is deterministic: retrying must not happen."""
    events = EventLog()
    engine = ExecutionEngine(retries=3, events=events)
    key = make_key(max_cycles=40, hang_cycles=0)
    with pytest.raises(IncompleteRunError) as err:
        engine.run(key)
    assert events.count("retry") == 0
    assert events.count("failed") == 1
    # The error carries the truncated result and its snapshot.
    assert err.value.result is not None
    assert "hang_snapshot" in err.value.result.extra


def test_hard_crash_breaks_pool_and_recovers():
    """os._exit in a worker breaks the pool; the engine rebuilds it and
    the resubmitted attempt (past crash_attempts) succeeds."""
    plan = FaultPlan(seed=3, crash_attempts=1, crash_hard=True)
    events = EventLog()
    engine = ExecutionEngine(jobs=2, retries=2, events=events, faults=plan)
    keys = [make_key("SCN"), make_key("BFS")]
    results = engine.run_many(keys)
    assert set(results) == set(keys)
    assert all(r.completed for r in results.values())
    assert events.count("retry") >= 1


def test_perturbing_plan_never_persisted(tmp_path):
    """Results simulated under memory faults must not pollute the shared
    on-disk cache."""
    plan = FaultPlan(seed=5, delay_response_rate=0.5)
    cache = ResultCache(tmp_path)
    engine = ExecutionEngine(cache=cache, faults=plan)
    engine.run(make_key())
    assert len(cache) == 0
    clean = ExecutionEngine(cache=ResultCache(tmp_path))
    clean.run(make_key())
    assert len(ResultCache(tmp_path)) == 1


# --------------------------------------------------------------- taxonomy
def test_classification():
    assert classify(IncompleteRunError("x")) is FailureKind.PERMANENT
    assert classify(InjectedWorkerCrash("x")) is FailureKind.TRANSIENT
    assert classify(KeyError("unknown")) is FailureKind.TRANSIENT
    assert is_transient(OSError("flaky disk"))
    from repro.errors import ConfigError, SimulationHangError
    assert classify(ConfigError("bad")) is FailureKind.PERMANENT
    assert classify(SimulationHangError("hung")) is FailureKind.PERMANENT
    assert isinstance(ConfigError("bad"), ValueError)


def test_record_mode_never_aborts_batch():
    """One permanent + one transient-exhausting failure; the batch still
    returns every healthy cell."""
    events = EventLog()
    engine = ExecutionEngine(retries=0, events=events)
    bad_hang = make_key("SCN", max_cycles=40, hang_cycles=0)
    bad_crash = RunKey("__BOOM__", "none", Scale.TINY, tiny_config())
    good = [make_key("SCN"), make_key("BFS")]
    seen = []
    results, failures = engine.run_recorded(
        [bad_hang, bad_crash] + good,
        on_complete=lambda k, r, f: seen.append((k, r is not None)))
    assert set(results) == set(good)
    assert set(failures) == {bad_hang, bad_crash}
    assert failures[bad_hang].kind is FailureKind.PERMANENT
    assert failures[bad_hang].attempts == 1
    assert failures[bad_crash].kind is FailureKind.TRANSIENT
    assert len(seen) == 4  # every cell resolved exactly once
