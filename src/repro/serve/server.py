"""Asyncio front-end of the simulation service.

:class:`LineEndpoint` is the listener: a Unix or TCP socket speaking
the line-delimited JSON protocol of :mod:`repro.serve.protocol`, with
pipelined connections, the ``ping`` / ``stats`` ops and a graceful
drain.  :class:`SimulationServer` is the backend built on it — it feeds
``simulate`` requests through the :class:`RequestScheduler` (admission
bound, work-conserving dispatch, single-flight, priorities) into the
synchronous :class:`~repro.exec.runner.ExecutionEngine` — and the fleet
router (:mod:`repro.serve.fleet.router`) is the other.

Request lifecycle guarantees (the failure semantics of
``docs/serving.md``):

* **load shedding** — when the admission queue is full the request is
  answered immediately with an explicit ``overloaded`` error; the
  server never queues unboundedly and never silently hangs a client;
* **deadlines** — every ``simulate`` request may carry ``deadline_s``
  (or inherit the server default); expiry answers
  ``deadline_exceeded`` while the underlying cell keeps running and
  lands in the caches, so an immediate retry is cheap;
* **graceful drain** — SIGTERM (or :meth:`drain`) stops admissions,
  answers new simulations with ``shutting_down``, lets every in-flight
  request finish and respond, then closes connections; the engine's
  process pools are per-batch and always shut down with the batch, so a
  drained server leaves no orphaned workers.

Connections are multiplexed: a client may pipeline many requests on one
connection, responses come back as each completes (correlated by
``id``), and one slow simulation never blocks another request's
response on the same connection.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import stat
import time
from dataclasses import asdict
from typing import Any, Dict, Optional, Set, Tuple

from repro.config import ServeConfig
from repro.errors import DeadlineExceededError, ShuttingDownError
from repro.exec.cache import key_fingerprint, serialize_result
from repro.exec.runner import ExecutionEngine
from repro.guard.faults import ServeFaultInjector
from repro.obs.cachestats import TierHitSeries
from repro.obs.latency import LatencyRecorder
from repro.serve import protocol
from repro.serve.memcache import ServeMemCache
from repro.serve.protocol import STREAM_LIMIT
from repro.serve.scheduler import RequestScheduler
from repro.serve.stats import (BackendCounters, BackendStats,
                               EndpointCounters, StatsHeader, TierStats)


def remove_stale_socket(path: str) -> None:
    """Unlink ``path`` when it is a dead Unix-socket file.

    A crashed server (SIGKILL, ``os._exit``, a chaos-plan backend kill)
    never reaches the drain-time ``os.unlink``, and the leftover file
    makes the next bind fail with ``EADDRINUSE``.  This probe connects
    to the path: connection refused (or a raced-away file) proves no
    listener owns it, so it is safe to remove; a successful connect
    means a live server still answers there and the bind is left to
    fail loudly.  Non-socket files are never touched.
    """
    try:
        if not stat.S_ISSOCK(os.stat(path).st_mode):
            return
    except OSError:
        return  # no file: nothing stale to clean
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.25)
    try:
        probe.connect(path)
    except (ConnectionRefusedError, FileNotFoundError, socket.timeout,
            OSError):
        try:
            os.unlink(path)
        except OSError:  # pragma: no cover - raced with another binder
            pass
    else:
        # A live listener answered: leave the file for bind() to reject.
        return
    finally:
        probe.close()


class LineEndpoint:
    """The line-protocol listener shared by a backend and the router.

    Owns everything that does not depend on what a ``simulate`` request
    means: binding a Unix or TCP listener (stale socket file removed,
    port 0 rebound to the port the kernel chose), one task per request
    line so a connection pipelines, the per-connection write lock, the
    ``ping`` and ``stats`` ops, the decode → ``parse_request`` →
    typed-error prelude, and the graceful drain.  A subclass sets
    ``role`` and ``counters_type`` and supplies :meth:`_simulate`,
    :meth:`stats` and :meth:`_quiesce`; ``config`` is a
    :class:`repro.config.Endpoint`.
    """

    #: The ``role`` a ``ping`` and the stats header report.
    role = ""
    #: The live counters this role keeps (its stats block).
    counters_type = EndpointCounters

    def __init__(self, config):
        self.config = config
        self.counters = self.counters_type()
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._request_tasks: Set[asyncio.Task] = set()
        self._draining = False
        self._started_at = 0.0

    # ---------------------------------------------------------- lifecycle
    @property
    def draining(self) -> bool:
        """True once drain began; simulate requests are refused."""
        return self._draining

    async def start(self) -> None:
        """Bind the listener and start accepting connections."""
        if self.config.socket_path:
            remove_stale_socket(self.config.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path,
                limit=STREAM_LIMIT)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.config.host,
                port=self.config.port, limit=STREAM_LIMIT)
            # Rebind the advertised port when 0 was requested.
            sockets = self._server.sockets or ()
            if sockets:
                self.config.port = sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def drain(self) -> None:
        """Graceful shutdown: finish in-flight work, then close.

        Idempotent.  On return every request read off a connection has
        been answered, every connection is closed and the socket file
        is gone.
        """
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self._quiesce()
        if self._request_tasks:
            await asyncio.gather(*list(self._request_tasks),
                                 return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        if self._server is None:
            return  # never bound: the socket file is not ours to remove
        await self._server.wait_closed()
        if self.config.socket_path:
            try:
                os.unlink(self.config.socket_path)
            except OSError:  # pragma: no cover - already removed
                pass

    async def _quiesce(self) -> None:
        """Drain hook, run once the listener is closed: stop background
        work and resolve whatever the request tasks still await."""

    # -------------------------------------------------------- connections
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.counters.connections += 1
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    self.counters.bad_lines += 1
                    break
                except asyncio.CancelledError:
                    # Event-loop teardown after drain: treat like EOF so
                    # the streams machinery does not log the cancelled
                    # handler as a crash.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock))
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter,
                          write_lock: asyncio.Lock) -> None:
        self.counters.requests += 1
        response = await self._response_for(line)
        if response is None:
            return  # _simulate chose never to answer
        data, hang_up = self._wire(response)
        async with write_lock:
            if writer.is_closing():
                return
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, BrokenPipeError):
                return
            finally:
                if hang_up:
                    writer.close()
        if hang_up:
            return  # what was written is not a response
        self.counters.responses += 1
        if not response.get("ok"):
            self.counters.errors += 1

    def _wire(self, response: Dict[str, Any]) -> Tuple[bytes, bool]:
        """Bytes to write for ``response``, and whether to hang up
        after writing them (the hook of the torn-line fault)."""
        return protocol.encode(response), False

    # ------------------------------------------------------------ request
    async def _response_for(self, line: bytes) -> Optional[Dict[str, Any]]:
        """Compute the response for one request line (``None``: none)."""
        req_id = ""
        try:
            payload = protocol.decode_line(line)
            raw_id = payload.get("id")
            req_id = raw_id if isinstance(raw_id, str) else ""
            request = protocol.parse_request(payload)
        except Exception as exc:
            return protocol.error_response(req_id, exc)
        if request.op == "ping":
            return protocol.ok_response(request.id, {
                "pong": True, "v": protocol.PROTOCOL_VERSION,
                "role": self.role, "draining": self._draining,
            })
        if request.op == "stats":
            return protocol.ok_response(request.id, self.stats())
        return await self._simulate(request, payload)

    async def _simulate(self, request: protocol.Request,
                        payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Answer one validated ``simulate`` request (``payload`` is its
        decoded wire form); ``None`` leaves the request unanswered."""
        raise NotImplementedError

    # -------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """Introspection snapshot answered to a ``stats`` request: the
        header every role shares, which subclasses extend."""
        return asdict(StatsHeader(
            stats_schema=protocol.STATS_SCHEMA_VERSION,
            protocol=protocol.PROTOCOL_VERSION,
            role=self.role,
            endpoint=self.config.endpoint,
            uptime_s=(round(time.monotonic() - self._started_at, 3)
                      if self._started_at else 0.0),
            draining=self._draining,
        ))


class SimulationServer(LineEndpoint):
    """Line-protocol asyncio server over one :class:`ExecutionEngine`."""

    role = "backend"
    counters_type = BackendCounters

    def __init__(self, engine: ExecutionEngine,
                 config: Optional[ServeConfig] = None):
        if engine.timeout_s:
            # call_with_timeout arms SIGALRM, which only works on the
            # main thread; dispatch happens on an executor thread.  Use
            # per-request deadlines instead.
            raise ValueError(
                "ExecutionEngine.timeout_s is not supported under the "
                "server (SIGALRM needs the main thread); use request "
                "deadlines / --default-deadline instead")
        super().__init__(config if config is not None else ServeConfig())
        self.engine = engine
        self.latency = LatencyRecorder(
            stages=("queue_wait", "dispatch", "total"))
        self.memcache = ServeMemCache(
            max_entries=self.config.memcache_entries,
            max_bytes=self.config.memcache_bytes,
        )
        self.tiers = TierHitSeries()
        self.scheduler = RequestScheduler(
            engine, self.memcache,
            queue_limit=self.config.queue_limit,
            batch_max=self.config.batch_max,
            latency=self.latency,
            tiers=self.tiers,
        )
        plan = self.config.fault_plan
        self.faults: Optional[ServeFaultInjector] = (
            ServeFaultInjector(plan, self.config.backend_index)
            if plan is not None and plan.any_faults else None)
        # The disk tier is observed from execution events: a dispatched
        # cell either hit the engine's memo/disk cache or started a
        # simulation.  Events fire on the executor thread; the series
        # is thread-safe.
        engine.events.subscribe(self._on_exec_event)

    def _on_exec_event(self, event) -> None:
        """Record disk-tier outcomes from the engine's event stream."""
        if event.kind == "cache_hit":
            self.tiers.record("disk", True)
        elif event.kind == "started":
            self.tiers.record("disk", False)

    # ---------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Start the dispatcher, then bind the listener."""
        await self.scheduler.start()
        await super().start()

    async def _quiesce(self) -> None:
        # Finish everything already admitted (resolves the futures the
        # request tasks await); the engine's pools end with their batch,
        # so no worker outlives the drain.
        await self.scheduler.drain()

    def _wire(self, response: Dict[str, Any]) -> Tuple[bytes, bool]:
        data = protocol.encode(response)
        torn = self.faults.tear(data) if self.faults is not None else None
        # Torn-line fault: half the response, then a dropped connection
        # (a crash between write and flush).
        return (data, False) if torn is None else (torn, True)

    # ------------------------------------------------------------ request
    async def _simulate(self, request: protocol.Request,
                        payload: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        start = time.perf_counter()
        if self.faults is not None:
            fate = self.faults.on_simulate()
            if fate == "kill":
                self.faults.kill_now()  # hard-exits: mid-flight crash
            elif fate == "blackhole":
                return None  # accepted, never answered
            elif fate == "slow":
                await asyncio.sleep(self.faults.plan.slow_request_s)
        try:
            if self._draining:
                raise ShuttingDownError(
                    "server is draining; resubmit to the next instance")
            key = protocol.request_to_key(request)
            deadline = (request.deadline_s
                        if request.deadline_s is not None
                        else self.config.default_deadline_s)
            submission = self.scheduler.submit(key, request.priority)
            if deadline:
                try:
                    result, source = await asyncio.wait_for(
                        submission, deadline)
                except asyncio.TimeoutError:
                    self.counters.deadline_exceeded += 1
                    raise DeadlineExceededError(
                        f"no result within the {deadline}s deadline for "
                        f"{key.describe()}; the cell keeps running and a "
                        "retry will find it cached") from None
            else:
                result, source = await submission
        except Exception as exc:
            return protocol.error_response(request.id, exc)
        wall = time.perf_counter() - start
        self.latency.record("total", wall)
        return protocol.ok_response(
            request.id,
            serialize_result(result),
            meta={
                "source": source,
                "wall_s": round(wall, 6),
                "cell": key.describe(),
                "fingerprint": key_fingerprint(key),
            },
        )

    # -------------------------------------------------------------- stats
    def stats(self) -> Dict[str, Any]:
        """Introspection snapshot answered to a ``stats`` request."""
        out = super().stats()
        out.update(asdict(BackendStats(
            backend_index=self.config.backend_index,
            engine_jobs=self.engine.jobs,
            server=self.counters,
            tiers=TierStats(**self.tiers.snapshot()),
        )))
        if self.faults is not None:
            out["faults"] = self.faults.stats()
        out.update(self.scheduler.stats())
        return out


async def run_server(engine: ExecutionEngine, config: ServeConfig,
                     *, install_signals: bool = True,
                     ready: Optional[asyncio.Event] = None) -> SimulationServer:
    """Run a server until SIGTERM/SIGINT, drain gracefully, return it.

    The CLI's ``repro serve`` entry point: binds, optionally installs
    signal handlers (SIGTERM and SIGINT both trigger a graceful drain),
    signals ``ready`` once accepting, and returns the drained server so
    the caller can print final stats and exit 0.
    """
    server = SimulationServer(engine, config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    if install_signals:
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix event loop; rely on KeyboardInterrupt
    if ready is not None:
        ready.set()
    try:
        await stop.wait()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
        await server.drain()
    return server
