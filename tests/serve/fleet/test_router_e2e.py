"""End-to-end fleet tests: real backend processes behind a real router.

Each test spawns genuine ``SimulationServer`` children (multiprocessing
``spawn``) and speaks the wire protocol through the router's Unix
socket — the production topology of ``repro fleet``, shrunk to two
backends and tiny cells.  The chaos suite layers fault injection on
top; here the faults are honest SIGKILLs.
"""

import asyncio
import contextlib
import multiprocessing
import os
import signal

import pytest

from repro.errors import DegradedError
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.stats import ROUTER_BLOCKS
from repro.serve.fleet.router import RouterConfig, make_fleet
from repro.sim.gpu import SimResult
from tests.serve.test_stats_schema import undeclared

CELLS = ("MM", "BFS", "FFT", "HST")


def simulate_kwargs(benchmark):
    return dict(benchmark=benchmark, engine="caps", scale="tiny",
                preset="test")


async def wait_dead(supervisor, index, timeout_s=20):
    """Poll until backend ``index``'s process is gone (or time out)."""
    deadline = asyncio.get_running_loop().time() + timeout_s
    while asyncio.get_running_loop().time() < deadline:
        if not supervisor.alive(index):
            return
        await asyncio.sleep(0.01)
    raise AssertionError(f"backend {index} still alive after {timeout_s}s")


@contextlib.asynccontextmanager
async def fleet(tmp_path, backends=2, **kwargs):
    """Spawn a fleet; always drain router then supervisor on exit."""
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("router_config", RouterConfig(
        probe_interval_s=0.1, failure_threshold=2, reset_timeout_s=0.5))
    supervisor, router = make_fleet(
        backends, str(tmp_path / "runtime"), **kwargs)
    supervisor.start()
    await router.start()
    try:
        assert await router.wait_backends_ready(timeout_s=30)
        yield supervisor, router
    finally:
        await router.drain()
        await asyncio.get_running_loop().run_in_executor(
            None, supervisor.drain)


class TestRoundTrip:
    def test_fleet_serves_all_cells_and_exports_valid_stats(self, tmp_path):
        async def scenario():
            async with fleet(tmp_path) as (supervisor, router):
                async with AsyncServeClient(
                        router.config.socket_path) as client:
                    pong = await client.request({
                        "v": protocol.PROTOCOL_VERSION, "id": "p",
                        "op": "ping"})
                    assert pong["result"]["role"] == "router"
                    for cell in CELLS:
                        result, meta = await client.simulate(
                            **simulate_kwargs(cell))
                        assert isinstance(result, SimResult)
                        assert "failover" not in (meta or {})
                    stats = await client.stats()
                assert protocol.validate_router_stats(stats) == []
                # Every key declared, but the optional supervisor block.
                assert undeclared(ROUTER_BLOCKS, stats) == ["supervisor"]
                assert stats["role"] == "router"
                assert stats["router"]["routed"] == len(CELLS)
                assert stats["router"]["failovers"] == 0
                assert stats["fleet"]["backends"] == 2
                assert stats["fleet"]["healthy"] == 2
                assert stats["supervisor"]["backends"]["0"]["alive"]
                # Clean run: every breaker stayed closed throughout.
                for entry in stats["backends"]:
                    assert entry["circuit"]["state"] == "closed"
        asyncio.run(scenario())

    def test_drain_leaves_no_children(self, tmp_path):
        async def scenario():
            async with fleet(tmp_path) as (supervisor, router):
                async with AsyncServeClient(
                        router.config.socket_path) as client:
                    await client.simulate(**simulate_kwargs("MM"))
            assert multiprocessing.active_children() == []
            assert not os.path.exists(router.config.socket_path)
        asyncio.run(scenario())


class TestDrain:
    def test_drain_ends_a_prober_that_outlived_its_cancellation(
            self, tmp_path):
        """Before Python 3.12 ``asyncio.wait_for`` returns normally when
        a cancellation lands as the awaited ping is answered, so the
        prober can survive drain's ``cancel()``; drain must still end."""
        async def scenario():
            _, router = make_fleet(
                1, str(tmp_path / "runtime"),
                router_config=RouterConfig(probe_interval_s=0))
            probing = asyncio.Event()

            async def probe():
                probing.set()
                try:
                    await asyncio.Event().wait()
                except asyncio.CancelledError:
                    return True     # the cancellation is lost here

            router.links[0].probe = probe
            await router.start()
            await probing.wait()
            await asyncio.wait_for(router.drain(), 5)
        asyncio.run(scenario())


class TestBadRequests:
    @pytest.mark.parametrize("overrides", [
        {"prefetch": 5}, {"dram": "x"}, {"num_sms": 2.5},
        {"num_sms": True},
    ])
    def test_malformed_overrides_are_refused_before_any_forward(
            self, tmp_path, overrides):
        """The router keys a request to route it, so it meets malformed
        overrides first: ``bad_request`` / permanent, nothing forwarded
        (no backend is even running here)."""
        async def scenario():
            _, router = make_fleet(1, str(tmp_path / "runtime"))
            await router.start()
            try:
                async with AsyncServeClient(
                        router.config.socket_path) as client:
                    response = await client.request_raw(
                        protocol.simulate_payload(
                            "malformed", overrides=overrides,
                            **simulate_kwargs("MM")))
                assert response["error"]["code"] == "bad_request"
                assert response["error"]["kind"] == "permanent"
                assert router.stats()["retry"]["attempts"] == 0
            finally:
                await router.drain()
        asyncio.run(scenario())


class TestFailover:
    def test_killed_backend_fails_over_without_losing_requests(
            self, tmp_path):
        """SIGKILL one of two backends (no restarts allowed): every cell
        still answers, the dead backend's keys carry failover meta."""
        async def scenario():
            async with fleet(tmp_path, restart_budget=0) as (
                    supervisor, router):
                os.kill(supervisor.backends[0].process.pid, signal.SIGKILL)
                await wait_dead(supervisor, 0)
                async with AsyncServeClient(
                        router.config.socket_path) as client:
                    metas = {}
                    for cell in CELLS:
                        result, meta = await client.simulate(
                            **simulate_kwargs(cell))
                        assert isinstance(result, SimResult)
                        metas[cell] = meta or {}
                    stats = await client.stats()
                assert protocol.validate_router_stats(stats) == []
                # The ring splits 4 cells over 2 backends; whatever
                # backend 0 owned was rerouted, nothing was lost.
                rerouted = [c for c, m in metas.items() if m.get("failover")]
                assert stats["fleet"]["healthy"] == 1
                if rerouted:
                    assert all(metas[c]["backend"] == 1 for c in rerouted)
                    assert stats["router"]["failovers"] + sum(
                        1 for e in stats["backends"]
                        if e["circuit"]["state"] != "closed") > 0
        asyncio.run(scenario())


class TestDegraded:
    def test_disk_fallback_then_typed_degraded_error(self, tmp_path):
        """Every backend down: warm keys come from the disk cache
        (read-only), cold keys get a ``degraded`` error with a
        retry-after hint."""
        async def scenario():
            async with fleet(tmp_path, backends=1, restart_budget=0) as (
                    supervisor, router):
                async with AsyncServeClient(
                        router.config.socket_path) as client:
                    _, warm_meta = await client.simulate(
                        **simulate_kwargs("MM"))
                    assert warm_meta["source"] == "dispatch"

                    os.kill(supervisor.backends[0].process.pid,
                            signal.SIGKILL)
                    await wait_dead(supervisor, 0)

                    result, meta = await client.simulate(
                        **simulate_kwargs("MM"))
                    assert isinstance(result, SimResult)
                    assert meta["source"] == "disk-degraded"

                    with pytest.raises(DegradedError) as excinfo:
                        await client.simulate(**simulate_kwargs("BFS"))
                    assert excinfo.value.retry_after_s == pytest.approx(
                        router.config.reset_timeout_s)
                    stats = await client.stats()
                assert stats["router"]["degraded_disk_hits"] == 1
                assert stats["router"]["degraded_errors"] == 1
                assert stats["fleet"]["healthy"] == 0
        asyncio.run(scenario())
