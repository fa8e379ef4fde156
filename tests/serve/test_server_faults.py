"""Serve-tier fault injection against a single live server.

Unit coverage of :class:`~repro.guard.faults.ServeFaultPlan` /
:class:`~repro.guard.faults.ServeFaultInjector` (seeded determinism,
fate selection, response tearing) plus live single-server runs of the
slow/blackhole/torn fault classes.  The kill fault and multi-backend
recovery live in ``tests/serve/fleet/test_chaos_fleet.py``.
"""

import asyncio
import contextlib
import time

import pytest

from repro.exec import EventLog, ExecutionEngine, ResultCache
from repro.guard.faults import ServeFaultInjector, ServeFaultPlan
from repro.serve.client import AsyncServeClient
from repro.serve.retry import RetryPolicy
from repro.serve.server import ServeConfig, SimulationServer
from repro.sim.gpu import SimResult


def simulate_kwargs(benchmark):
    return dict(benchmark=benchmark, engine="caps", scale="tiny",
                preset="test")


@contextlib.asynccontextmanager
async def faulty_server(tmp_path, plan, **config_kwargs):
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         fault_plan=plan, **config_kwargs)
    engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache"),
                             events=EventLog())
    server = SimulationServer(engine, config)
    await server.start()
    try:
        yield server
    finally:
        await server.drain()


class TestPlanValidation:
    def test_rejects_out_of_range_rates(self):
        for knob in ("slow_request_rate", "blackhole_rate",
                     "torn_response_rate"):
            with pytest.raises(ValueError):
                ServeFaultPlan(**{knob: 1.5})
            with pytest.raises(ValueError):
                ServeFaultPlan(**{knob: -0.1})
        with pytest.raises(ValueError):
            ServeFaultPlan(kill_after_requests=-1)
        with pytest.raises(ValueError):
            ServeFaultPlan(slow_request_s=-0.5)

    def test_any_faults_requires_an_armed_class(self):
        assert not ServeFaultPlan().any_faults
        # An unarmed kill (no target, or no countdown) is not a fault.
        assert not ServeFaultPlan(kill_backend=1).any_faults
        assert not ServeFaultPlan(kill_after_requests=3).any_faults
        assert ServeFaultPlan(kill_backend=1,
                              kill_after_requests=3).any_faults
        assert ServeFaultPlan(slow_request_rate=0.1).any_faults
        assert ServeFaultPlan(blackhole_rate=0.1).any_faults
        assert ServeFaultPlan(torn_response_rate=0.1).any_faults


class TestInjectorFates:
    def test_kill_fires_on_the_exact_request_of_the_target(self):
        plan = ServeFaultPlan(kill_backend=2, kill_after_requests=3)
        target = ServeFaultInjector(plan, backend_index=2)
        bystander = ServeFaultInjector(plan, backend_index=1)
        assert [target.on_simulate() for _ in range(4)] == [
            "serve", "serve", "kill", "serve"]
        assert [bystander.on_simulate() for _ in range(4)] == ["serve"] * 4

    def test_fates_are_seed_deterministic(self):
        plan = ServeFaultPlan(seed=9, slow_request_rate=0.4,
                              blackhole_rate=0.2)
        a = ServeFaultInjector(plan, backend_index=0)
        b = ServeFaultInjector(plan, backend_index=0)
        fates = [a.on_simulate() for _ in range(128)]
        assert fates == [b.on_simulate() for _ in range(128)]
        assert "slow" in fates and "blackhole" in fates
        assert a.slowed == b.slowed and a.blackholed == b.blackholed

    def test_different_seed_different_schedule(self):
        kwargs = dict(slow_request_rate=0.4, blackhole_rate=0.2)
        one = ServeFaultInjector(ServeFaultPlan(seed=1, **kwargs))
        two = ServeFaultInjector(ServeFaultPlan(seed=2, **kwargs))
        assert [one.on_simulate() for _ in range(128)] != \
            [two.on_simulate() for _ in range(128)]

    def test_tear_halves_the_line_and_counts(self):
        injector = ServeFaultInjector(
            ServeFaultPlan(torn_response_rate=1.0))
        line = b'{"ok": true, "id": "x"}\n'
        torn = injector.tear(line)
        assert torn is not None
        assert line.startswith(torn)
        assert 1 <= len(torn) < len(line)
        assert injector.torn == 1

    def test_tear_disarmed_delivers_intact(self):
        injector = ServeFaultInjector(ServeFaultPlan())
        assert injector.tear(b'{"ok": true}\n') is None
        assert injector.torn == 0


class TestLiveFaults:
    def test_slow_fault_delays_the_answer(self, tmp_path):
        plan = ServeFaultPlan(slow_request_rate=1.0, slow_request_s=0.25)

        async def scenario():
            async with faulty_server(tmp_path, plan) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    start = time.perf_counter()
                    result, _ = await client.simulate(**simulate_kwargs("MM"))
                    elapsed = time.perf_counter() - start
                assert isinstance(result, SimResult)
                assert elapsed >= 0.25
                assert server.stats()["faults"]["slowed"] == 1
        asyncio.run(scenario())

    def test_blackholed_request_is_never_answered(self, tmp_path):
        plan = ServeFaultPlan(blackhole_rate=1.0)

        async def scenario():
            async with faulty_server(tmp_path, plan) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    with pytest.raises(asyncio.TimeoutError):
                        await asyncio.wait_for(
                            client.simulate(**simulate_kwargs("MM")), 0.5)
                assert server.stats()["faults"]["blackholed"] == 1
        asyncio.run(scenario())

    def test_torn_response_surfaces_as_connection_error(self, tmp_path):
        plan = ServeFaultPlan(torn_response_rate=1.0)

        async def scenario():
            async with faulty_server(tmp_path, plan) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    with pytest.raises((ConnectionError, OSError)):
                        await client.simulate(**simulate_kwargs("MM"))
                assert server.stats()["faults"]["torn"] >= 1
        asyncio.run(scenario())

    def test_retrying_client_survives_intermittent_tearing(self, tmp_path):
        """A sub-certain torn rate plus a retrying client: the request
        eventually lands (the repro-request CLI hardening path)."""
        plan = ServeFaultPlan(seed=5, torn_response_rate=0.5)

        async def scenario():
            async with faulty_server(tmp_path, plan) as server:
                async with AsyncServeClient(
                        server.config.socket_path,
                        retry=RetryPolicy(attempts=8, base_delay_s=0.01,
                                          jitter=0.0)) as client:
                    result, _ = await client.simulate(**simulate_kwargs("MM"))
                assert isinstance(result, SimResult)
                assert client.retry_stats.succeeded == 1
        asyncio.run(scenario())

    def test_production_config_compiles_faults_out(self, tmp_path):
        """No plan (or a no-op plan) must leave the fault path dormant:
        no injector, no ``faults`` stats block."""
        async def scenario():
            async with faulty_server(tmp_path, ServeFaultPlan()) as server:
                assert server.faults is None
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    result, _ = await client.simulate(**simulate_kwargs("MM"))
                    assert isinstance(result, SimResult)
                assert "faults" not in server.stats()
        asyncio.run(scenario())
