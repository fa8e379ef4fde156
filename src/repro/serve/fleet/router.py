"""The fleet front-end: one v-protocol listener routing to N backends.

:class:`FleetRouter` speaks exactly the protocol of a single
:class:`~repro.serve.server.SimulationServer` — clients cannot tell a
fleet from one server — and forwards every ``simulate`` request to a
backend chosen by consistent-hashing its canonical cell fingerprint
(:func:`~repro.serve.protocol.request_to_key` →
:func:`~repro.exec.cache.key_fingerprint`), so each backend owns a
stable partition of the key space and keeps its memcache and dedup
state warm for it.

Failure handling, per request:

1. walk the fingerprint's ring :meth:`~.hashring.HashRing.preference`
   order, skipping backends whose circuit breaker is not
   :meth:`~.health.CircuitBreaker.allow`-ing traffic;
2. a transport-level failure (connect refused, reset, forward timeout —
   the backend died or blackholed) records a breaker failure and fails
   over to the next candidate;
3. a *protocol* response — success or a typed error envelope — records
   a breaker success (the backend is alive) and is forwarded to the
   client verbatim;
4. when every candidate is down: serve the shared disk cache read-only
   (``meta.source = "disk-degraded"``) if the cell is resident, else
   answer a typed ``degraded`` error carrying a ``retry_after_s`` hint
   sized to the breaker reset timeout.

Request ids are rewritten hop-by-hop (router ids are unique per
backend connection; the client's id is restored on the way back), so
many client connections can multiplex onto one pipelined backend
connection without collisions.

A background prober pings every backend each ``probe_interval_s`` —
passive accounting opens breakers under traffic, active probes open
them while idle and are the trial requests that close them again
(open → half_open → closed) — and a monitor task drives
:meth:`~.supervisor.BackendSupervisor.poll` so crashed backends restart
within their budget.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import os
import time
from typing import Any, Dict, List, Optional

from repro.config import DEFAULT_PORT, RouterConfig, ServeConfig
from repro.errors import DegradedError
from repro.exec.cache import ResultCache, key_fingerprint, serialize_result
from repro.serve import protocol
from repro.serve.client import AsyncServeClient
from repro.serve.fleet.hashring import HashRing
from repro.serve.fleet.health import CircuitBreaker, CircuitState
from repro.serve.fleet.supervisor import BackendSpec, BackendSupervisor
from repro.serve.retry import RetryStats
from repro.serve.server import LineEndpoint
from repro.serve.stats import (BackendHealth, FleetStats, ProbeStats,
                               RouterCounters, RouterStats)

_FORWARD_IDS = itertools.count(1)


class BackendLink:
    """The router's view of one backend: client + breaker + counters."""

    def __init__(self, spec: BackendSpec, config: RouterConfig):
        self.spec = spec
        self.config = config
        self.client = AsyncServeClient(
            socket_path=spec.serve.socket_path,
            host=spec.serve.host, port=spec.serve.port,
            connect_timeout=config.connect_timeout_s)
        self.breaker = CircuitBreaker(
            failure_threshold=config.failure_threshold,
            reset_timeout_s=config.reset_timeout_s)
        self.probes = ProbeStats()

    async def forward(self, payload: Dict[str, Any],
                      timeout_s: Optional[float]) -> Dict[str, Any]:
        """Send one payload; return the raw response envelope.

        Transport failures tear the pipelined connection down (pending
        requests fail over too) and re-raise for the router's failover
        walk.
        """
        try:
            sending = self.client.request_raw(payload)
            if timeout_s is not None:
                return await asyncio.wait_for(sending, timeout_s)
            return await sending
        except (ConnectionError, asyncio.TimeoutError, OSError):
            await self.client.close()
            raise

    async def probe(self) -> bool:
        """One active ping; feeds the breaker, returns liveness."""
        self.probes.sent += 1
        payload = {"v": protocol.PROTOCOL_VERSION,
                   "id": f"probe-{next(_FORWARD_IDS)}", "op": "ping"}
        try:
            response = await self.forward(payload,
                                          self.config.probe_timeout_s)
        except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
            self.probes.failed += 1
            self.breaker.record_failure(f"probe: {exc!r}")
            return False
        self.probes.ok += 1
        if response.get("ok"):
            self.breaker.record_success()
            return True
        self.breaker.record_failure("probe answered an error")
        return False

    def health(self, restarts: int = 0) -> Dict[str, Any]:
        """One ``backends[]`` entry of the router stats payload."""
        return dataclasses.asdict(BackendHealth(
            index=self.spec.index,
            endpoint=self.spec.endpoint,
            healthy=self.breaker.state is CircuitState.CLOSED,
            circuit=self.breaker.snapshot(),
            probes=self.probes,
            restarts=restarts,
        ))


class FleetRouter(LineEndpoint):
    """Line-protocol front-end consistent-hashing over backend links."""

    role = "router"
    counters_type = RouterCounters

    def __init__(self, links: List[BackendLink],
                 config: Optional[RouterConfig] = None,
                 supervisor: Optional[BackendSupervisor] = None):
        if not links:
            raise ValueError("router needs at least one backend link")
        super().__init__(config if config is not None else RouterConfig())
        self.links = {link.spec.index: link for link in links}
        self.supervisor = supervisor
        self.ring = HashRing(sorted(self.links), vnodes=self.config.vnodes)
        self.disk_cache = (ResultCache(self.config.degraded_cache_dir)
                           if self.config.degraded_cache_dir else None)
        self.retry_stats = RetryStats()
        self._prober_task: Optional[asyncio.Task] = None
        self._monitor_task: Optional[asyncio.Task] = None

    # --------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the listener, start the prober and supervisor monitor."""
        await super().start()
        loop = asyncio.get_running_loop()
        self._prober_task = loop.create_task(self._prober())
        if self.supervisor is not None:
            self._monitor_task = loop.create_task(self._monitor())

    async def wait_backends_ready(self, timeout_s: float = 15.0) -> bool:
        """Poll until every backend answers a ping (or timeout).

        Used at fleet start so the first client request does not race
        the backends' binds; returns True when all came up.  A backend
        whose breaker tripped on probes sent *before* it finished
        binding is force-closed once it answers — those startup
        failures are not evidence about a running backend.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            up = 0
            for link in self.links.values():
                if await link.probe():
                    up += 1
                    if link.breaker.state is not CircuitState.CLOSED:
                        link.breaker.reset("startup probe succeeded")
            if up == len(self.links):
                return True
            await asyncio.sleep(0.05)
        return False

    async def drain(self) -> None:
        """Graceful shutdown: answer in-flight work, close everything
        (idempotent), the backend links last."""
        await super().drain()
        for link in self.links.values():
            await link.client.close()

    async def _quiesce(self) -> None:
        for task in (self._prober_task, self._monitor_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass

    # ----------------------------------------------------- background work
    async def _prober(self) -> None:
        """Active health probing at ``probe_interval_s`` cadence.

        Open breakers are skipped (that is the point of the open state:
        no traffic at all); once the reset timeout lazily moves them to
        half-open, the probe itself is the trial request that closes
        them again.  The loop also ends on ``draining``: before Python
        3.12 ``asyncio.wait_for`` (under :meth:`BackendLink.forward`)
        swallows a cancellation that lands as the ping's answer does,
        and drain awaits this task.
        """
        while not self._draining:
            await asyncio.sleep(self.config.probe_interval_s)
            for link in list(self.links.values()):
                if link.breaker.allow():
                    await link.probe()

    async def _monitor(self) -> None:
        """Drive the supervisor's crash detection/restart loop."""
        assert self.supervisor is not None
        while True:
            await asyncio.sleep(self.config.monitor_interval_s)
            self.supervisor.poll()

    # ------------------------------------------------------------ routing
    async def _simulate(self, request: protocol.Request,
                        payload: Dict[str, Any]) -> Dict[str, Any]:
        """Forward one simulate request along its ring preference."""
        try:
            key = protocol.request_to_key(request)
        except Exception as exc:  # overrides invalid at resolve time
            return protocol.error_response(request.id, exc)
        fingerprint = key_fingerprint(key)
        forwarded = dict(payload)
        forwarded["id"] = f"r{next(_FORWARD_IDS)}"
        attempted = 0
        for position, index in enumerate(self.ring.preference(fingerprint)):
            link = self.links[index]
            if not link.breaker.allow():
                continue
            attempted += 1
            self.retry_stats.attempts += 1
            try:
                response = await link.forward(
                    forwarded, self.config.forward_timeout_s)
            except (ConnectionError, asyncio.TimeoutError, OSError) as exc:
                link.breaker.record_failure(repr(exc))
                self.counters.failovers += 1
                self.retry_stats.retries += 1
                self.retry_stats.last_error = repr(exc)
                continue
            # Any protocol-level answer proves the backend alive; typed
            # errors (overloaded, simulation_failed, ...) are the
            # client's business and forwarded verbatim.
            link.breaker.record_success()
            self.counters.routed += 1
            self.retry_stats.succeeded += 1
            response = dict(response)
            response["id"] = request.id
            if position > 0 or attempted > 1:
                meta = dict(response.get("meta") or {})
                meta["failover"] = True
                meta["backend"] = index
                response["meta"] = meta
            return response
        return await self._degraded(request, key, fingerprint)

    async def _degraded(self, request: protocol.Request, key,
                        fingerprint: str) -> Dict[str, Any]:
        """Every candidate is down: disk fallback, else typed error."""
        if self.disk_cache is not None:
            result = await asyncio.get_running_loop().run_in_executor(
                None, self.disk_cache.get, key)
            if result is not None:
                self.counters.degraded_disk_hits += 1
                return protocol.ok_response(
                    request.id, serialize_result(result),
                    meta={"source": "disk-degraded",
                          "cell": key.describe(),
                          "fingerprint": fingerprint})
        self.counters.degraded_errors += 1
        self.retry_stats.gave_up += 1
        hint = (self.config.retry_after_s
                if self.config.retry_after_s is not None
                else self.config.reset_timeout_s)
        return protocol.error_response(request.id, DegradedError(
            f"no healthy backend for {key.describe()} and the cell is "
            "not in the disk cache; retry after the hinted back-off",
            retry_after_s=hint))

    # -------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """Router introspection snapshot (``role == "router"``)."""
        healthy = sum(
            1 for link in self.links.values()
            if link.breaker.state is CircuitState.CLOSED)
        restarts = {
            index: (self.supervisor.restarts(index)
                    if self.supervisor is not None else 0)
            for index in self.links
        }
        out = super().stats()
        out.update(dataclasses.asdict(RouterStats(
            fleet=FleetStats(backends=len(self.links), healthy=healthy,
                             vnodes=self.config.vnodes),
            router=self.counters,
            retry=self.retry_stats,
            backends=[self.links[index].health(restarts[index])
                      for index in sorted(self.links)],
        )))
        if self.supervisor is not None:
            out["supervisor"] = self.supervisor.stats()
        return out


def make_fleet(backends: int, runtime_dir: str, *,
               router_config: Optional[RouterConfig] = None,
               jobs: int = 1,
               cache_dir: Optional[str] = None,
               serve_template: Optional[Any] = None,
               fault_plan: Optional[Any] = None,
               restart_budget: Optional[int] = None):
    """Build a ``(supervisor, router)`` pair for an N-backend fleet.

    Backend Unix sockets land under ``runtime_dir`` (one
    ``backend-<i>.sock`` each); ``serve_template`` (a
    :class:`~repro.config.ServeConfig`) seeds every backend's
    capacity knobs, with per-backend ``socket_path``/``backend_index``/
    ``fault_plan`` filled in here.  ``cache_dir`` doubles as each
    backend's persistent result cache and the router's read-only
    degraded fallback.
    """
    if backends < 1:
        raise ValueError(f"backends must be >= 1 (got {backends})")
    os.makedirs(runtime_dir, exist_ok=True)
    config = router_config if router_config is not None else RouterConfig()
    if config.socket_path is None and config.port == DEFAULT_PORT:
        config.socket_path = os.path.join(runtime_dir, "router.sock")
    if config.degraded_cache_dir is None and cache_dir:
        config.degraded_cache_dir = cache_dir
    template = (serve_template if serve_template is not None
                else ServeConfig())
    specs = []
    for index in range(backends):
        serve = dataclasses.replace(
            template,
            socket_path=os.path.join(runtime_dir, f"backend-{index}.sock"),
            backend_index=index,
            fault_plan=fault_plan,
        )
        specs.append(BackendSpec(index=index, serve=serve, jobs=jobs,
                                 cache_dir=cache_dir))
    supervisor = (BackendSupervisor(specs, restart_budget=restart_budget)
                  if restart_budget is not None
                  else BackendSupervisor(specs))
    links = [BackendLink(spec, config) for spec in specs]
    router = FleetRouter(links, config, supervisor=supervisor)
    return supervisor, router


async def run_fleet(supervisor: BackendSupervisor, router: FleetRouter,
                    *, install_signals: bool = True,
                    ready: Optional[asyncio.Event] = None) -> FleetRouter:
    """Run a fleet until SIGTERM/SIGINT, drain gracefully, return router.

    The ``repro fleet`` entry point: spawns the backends, waits for
    them to answer pings, serves until a stop signal, then drains the
    router (in-flight answers finish) before draining the supervisor
    (backends SIGTERMed, joined — no orphaned children).
    """
    import signal

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    if install_signals:
        # Before anything spawns: a SIGTERM racing fleet startup must
        # still drain the children instead of orphaning them.
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
    supervisor.start()
    try:
        # Inside the try: a router that cannot bind still drains the
        # backends it was spawned beside instead of orphaning them.
        await router.start()
        stopping = loop.create_task(stop.wait())
        waiting = loop.create_task(router.wait_backends_ready())
        await asyncio.wait({stopping, waiting},
                           return_when=asyncio.FIRST_COMPLETED)
        waiting.cancel()
        if not stop.is_set():
            if ready is not None:
                ready.set()
            await stopping
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await router.drain()
        await loop.run_in_executor(None, supervisor.drain)
    return router
