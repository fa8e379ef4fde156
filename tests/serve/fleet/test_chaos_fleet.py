"""Serve-tier chaos acceptance: seeded faults, zero lost requests.

The headline robustness criteria of the fleet, asserted end-to-end
against real backend processes:

* a seeded :class:`~repro.guard.faults.ServeFaultPlan` kills one of
  three backends mid-sweep (hard ``os._exit`` while serving) — every
  request still eventually succeeds, and repeated sweeps return
  byte-identical results that also match a direct in-process run;
* the supervisor restarts the victim within its restart budget;
* the victim's circuit breaker demonstrably walks
  closed → open → half_open → closed in the exported stats;
* torn/slow/blackholed responses are survived by the retrying client
  plus router failover, and the drain still leaves no children.
"""

import asyncio
import collections
import contextlib
import multiprocessing

from repro.config import test_config as tiny_config
from repro.exec import RunKey, execute_cell, result_bytes
from repro.exec.cache import key_fingerprint
from repro.guard.faults import SERVE_KILL_EXIT, ServeFaultPlan
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.fleet.hashring import HashRing
from repro.serve.fleet.health import CircuitState
from repro.serve.fleet.router import RouterConfig, make_fleet
from repro.serve.retry import RetryPolicy
from repro.sim.gpu import SimResult
from repro.workloads import Scale

CELLS = ("MM", "BFS", "FFT", "HST")


def simulate_kwargs(benchmark):
    return dict(benchmark=benchmark, engine="caps", scale="tiny",
                preset="test")


def request_of(benchmark):
    return protocol.parse_request({
        "v": protocol.PROTOCOL_VERSION, "id": "x", "op": "simulate",
        **simulate_kwargs(benchmark)})


def owner_of(benchmark, backends=3):
    """Which backend the fleet's ring routes this cell to (the router
    derives placement from the same SHA-256 ring, so this is exact)."""
    fingerprint = key_fingerprint(protocol.request_to_key(
        request_of(benchmark)))
    return HashRing(list(range(backends))).node_for(fingerprint)


def pick_victim(backends=3):
    """The backend owning the most cells — guaranteed >= 2 of the 4
    (pigeonhole), so ``kill_after_requests=2`` fires mid-sweep."""
    owners = collections.Counter(owner_of(c, backends) for c in CELLS)
    victim, owned = owners.most_common(1)[0]
    assert owned >= 2
    return victim


def walks_recovery(transitions):
    """True when the closed→open→half_open→closed trajectory appears
    (as an ordered subsequence) in a breaker's exported transitions.

    The closing hop must be a genuine half-open trial success — the
    startup readiness barrier's force-close uses a different reason, so
    this can only be satisfied by steady-state recovery after a trip.
    Failed trials (half_open→open) in between are allowed: a breaker
    probing a still-restarting backend legitimately bounces."""
    hops = [(t["from"], t["to"], t["reason"]) for t in transitions]
    for k, hop in enumerate(hops):
        if hop[:2] != ("half_open", "closed") or \
                hop[2] != "trial request succeeded":
            continue
        halfs = [j for j in range(k) if hops[j][:2] == ("open", "half_open")]
        opens = [i for i in range(k) if hops[i][:2] == ("closed", "open")]
        if halfs and opens and min(opens) < max(halfs):
            return True
    return False


@contextlib.asynccontextmanager
async def chaos_fleet(tmp_path, plan, backends=3, restart_budget=3,
                      **router_knobs):
    router_knobs.setdefault("probe_interval_s", 0.05)
    router_knobs.setdefault("failure_threshold", 2)
    router_knobs.setdefault("reset_timeout_s", 0.4)
    supervisor, router = make_fleet(
        backends, str(tmp_path / "runtime"),
        cache_dir=str(tmp_path / "cache"),
        router_config=RouterConfig(**router_knobs),
        fault_plan=plan,
        restart_budget=restart_budget)
    supervisor.start()
    await router.start()
    try:
        assert await router.wait_backends_ready(timeout_s=30)
        yield supervisor, router
    finally:
        await router.drain()
        await asyncio.get_running_loop().run_in_executor(
            None, supervisor.drain)


def retrying_client(router, attempts=5):
    return AsyncServeClient(
        router.config.socket_path,
        retry=RetryPolicy(attempts=attempts, base_delay_s=0.05,
                          jitter=0.0))


async def sweep(client, rounds=2):
    """Run every cell ``rounds`` times; return {cell: set(result bytes)}.

    Every call must succeed — a lost request fails the sweep."""
    blobs = {cell: set() for cell in CELLS}
    for _ in range(rounds):
        for cell in CELLS:
            result, _meta = await client.simulate(**simulate_kwargs(cell))
            assert isinstance(result, SimResult)
            blobs[cell].add(result_bytes(result))
    return blobs


class TestKillMidSweep:
    def test_zero_lost_requests_and_full_breaker_recovery(self, tmp_path):
        """The acceptance scenario: 3 backends, the busiest one is
        SIGKILLed (``os._exit``) while serving its 2nd request of the
        sweep.  Every request succeeds, answers stay byte-identical,
        the supervisor restarts the victim within budget, and the
        breaker's exported transitions walk the full recovery path."""
        victim = pick_victim()
        plan = ServeFaultPlan(seed=7, kill_backend=victim,
                              kill_after_requests=2)
        assert plan.any_faults

        async def scenario():
            async with chaos_fleet(tmp_path, plan) as (supervisor, router):
                async with retrying_client(router) as client:
                    blobs = await sweep(client, rounds=2)

                # Zero lost requests, byte-identical across rounds and
                # across the failover reroute.
                assert all(len(b) == 1 for b in blobs.values())

                # The victim really died the hard way and was revived.
                # (The revived victim runs the same plan: when it came
                # back early enough to own two more requests, it has
                # just died again and its next restart is awaited.)
                deadline = asyncio.get_running_loop().time() + 20
                while asyncio.get_running_loop().time() < deadline:
                    if (supervisor.restarts(victim) >= 1
                            and supervisor.alive(victim)
                            and router.links[victim].breaker.state
                            is CircuitState.CLOSED):
                        break
                    await asyncio.sleep(0.1)
                stats = router.stats()
                assert protocol.validate_router_stats(stats) == []
                victim_stats = stats["supervisor"]["backends"][str(victim)]
                assert SERVE_KILL_EXIT in victim_stats["exits"]
                assert 1 <= victim_stats["restarts"] <= 3
                assert not victim_stats["given_up"]
                assert victim_stats["alive"]

                # closed → open → half_open → closed, in exported stats.
                circuit = stats["backends"][victim]["circuit"]
                assert circuit["state"] == "closed"
                assert walks_recovery(circuit["transitions"])

                # The sweep rerouted around the death instead of
                # failing: the router saw it as failover traffic.
                assert stats["router"]["failovers"] >= 1
                assert stats["router"]["degraded_errors"] == 0
                return blobs

        blobs = asyncio.run(scenario())
        assert multiprocessing.active_children() == []

        # Served-through-chaos bytes match a direct in-process run.
        request = request_of("MM")
        serial = execute_cell(RunKey(
            "MM", "caps", Scale.TINY,
            tiny_config().with_scheduler(
                protocol.request_to_key(request).config.scheduler)))
        assert blobs["MM"] == {result_bytes(serial)}


class TestByzantineFaults:
    def test_slow_torn_blackhole_sweep_loses_nothing(self, tmp_path):
        """Degraded-but-alive backends: slow answers, torn response
        lines (connection dropped mid-write) and blackholed requests
        (accepted, never answered).  The retrying client + router
        forward-timeout + failover absorb all of it."""
        plan = ServeFaultPlan(seed=11, slow_request_rate=0.3,
                              slow_request_s=0.02,
                              torn_response_rate=0.2,
                              blackhole_rate=0.15)

        async def scenario():
            async with chaos_fleet(
                    tmp_path, plan, failure_threshold=3,
                    forward_timeout_s=1.0) as (supervisor, router):
                async with retrying_client(router, attempts=6) as client:
                    blobs = await sweep(client, rounds=2)
                assert all(len(b) == 1 for b in blobs.values())
                stats = router.stats()
                assert protocol.validate_router_stats(stats) == []
                # No backend process ever died under these fault
                # classes; the damage was purely on the wire.
                assert all(not entry["given_up"]
                           for entry in
                           stats["supervisor"]["backends"].values())
                # Correlated wire faults may transiently open every
                # breaker (a degraded error reaches the client), but
                # the retrying client rode through it: zero lost.
        asyncio.run(scenario())
        assert multiprocessing.active_children() == []


class TestPlanDeterminism:
    def test_same_seed_same_victim_schedule(self):
        """Two injectors built from equal plans draw identical fault
        sequences — the property that makes chaos runs replayable."""
        from repro.guard.faults import ServeFaultInjector

        plan_a = ServeFaultPlan(seed=42, slow_request_rate=0.5,
                                blackhole_rate=0.2,
                                torn_response_rate=0.3)
        plan_b = ServeFaultPlan(seed=42, slow_request_rate=0.5,
                                blackhole_rate=0.2,
                                torn_response_rate=0.3)
        a = ServeFaultInjector(plan_a, backend_index=1)
        b = ServeFaultInjector(plan_b, backend_index=1)
        assert [a.on_simulate() for _ in range(64)] == \
            [b.on_simulate() for _ in range(64)]
        # A different backend index draws an independent stream.
        c = ServeFaultInjector(plan_a, backend_index=2)
        fates_c = [c.on_simulate() for _ in range(64)]
        fates_a = [ServeFaultInjector(plan_a, 1).on_simulate()
                   for _ in range(64)]
        assert fates_c != fates_a
