"""Client library for the simulation service (async, and a sync facade).

:class:`AsyncServeClient` is the one implementation of connect / send /
read-a-line / close: an asyncio client that pipelines many concurrent
requests over one connection (responses are correlated by request id),
used by the fleet router, the end-to-end tests and the throughput
benchmark.  :class:`ServeClient` is the blocking facade the
``repro request`` CLI uses: it drives one :class:`AsyncServeClient` on
a private event loop, one request at a time.

``simulate`` payloads are deserialized back into
:class:`~repro.result.SimResult` objects via
:func:`repro.result.deserialize_result`, so a served result is
byte-identical (under :func:`~repro.exec.cache.result_bytes`) to the
same cell executed in-process; wire error codes come back as the typed
exceptions of :mod:`repro.errors`.

Resilience: connecting always has a bounded timeout
(:data:`DEFAULT_CONNECT_TIMEOUT_S`, distinct from the blocking
facade's per-call ``timeout`` — a dead endpoint fails fast even when
requests may run unbounded), and an optional
:class:`~repro.serve.retry.RetryPolicy` re-runs transient failures with
backoff, reconnecting between attempts — safe because every request is
idempotent by content-hash.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from typing import Any, Dict, Optional, Tuple

from repro.config import DEFAULT_HOST, DEFAULT_PORT
from repro.errors import RequestError
from repro.result import SimResult, deserialize_result
from repro.serve import protocol
from repro.serve.protocol import STREAM_LIMIT
from repro.serve.retry import RetryPolicy, RetryStats

#: Bound on connection establishment (seconds).  Distinct from the
#: per-call ``timeout``: ``timeout=None`` legitimately means "wait
#: however long the simulation takes", but waiting forever for a SYN/
#: accept that will never come (dead endpoint, wedged listener) is
#: never useful.
DEFAULT_CONNECT_TIMEOUT_S = 5.0

_REQUEST_IDS = itertools.count(1)


def _next_id() -> str:
    """Process-unique request id (pid + monotonic counter)."""
    return f"{os.getpid()}-{next(_REQUEST_IDS)}"


class AsyncServeClient:
    """Asyncio client supporting pipelined concurrent requests."""

    def __init__(self, socket_path: Optional[str] = None,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT_S,
                 retry: Optional[RetryPolicy] = None):
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.retry = retry
        self.retry_stats = RetryStats()
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock: Optional[asyncio.Lock] = None
        self._conn_lock: Optional[asyncio.Lock] = None

    # --------------------------------------------------------- connection
    def _connection(self) -> asyncio.Lock:
        """The lock connect() and close() take turns under (made on
        first use: before 3.10 a Lock binds to the loop it is built on)."""
        if self._conn_lock is None:
            self._conn_lock = asyncio.Lock()
        return self._conn_lock

    async def connect(self) -> "AsyncServeClient":
        """Open the connection and start the response demultiplexer.

        Establishment is bounded by ``connect_timeout`` so a dead
        endpoint raises instead of hanging the caller forever.
        Concurrent callers (requests pipelined onto a cold client) wait
        for the one connect in flight instead of each opening their own.
        """
        async with self._connection():
            if self._writer is not None:
                return self
            if self.socket_path:
                opening = asyncio.open_unix_connection(
                    self.socket_path, limit=STREAM_LIMIT)
            else:
                opening = asyncio.open_connection(
                    self.host, self.port, limit=STREAM_LIMIT)
            if self.connect_timeout is not None:
                self._reader, self._writer = await asyncio.wait_for(
                    opening, self.connect_timeout)
            else:
                self._reader, self._writer = await opening
            self._write_lock = asyncio.Lock()
            self._reader_task = asyncio.get_running_loop().create_task(
                self._read_responses())
            return self

    async def close(self) -> None:
        """Close the connection and fail any still-pending requests.

        Waits out a connect in flight, so the connection it opens is
        closed here rather than left behind on a closed client.
        """
        async with self._connection():
            if self._reader_task is not None:
                self._reader_task.cancel()
                try:
                    await self._reader_task
                except (asyncio.CancelledError, Exception):
                    pass
                self._reader_task = None
            if self._writer is not None:
                self._writer.close()
                try:
                    await self._writer.wait_closed()
                except (ConnectionError, BrokenPipeError):
                    pass
                self._writer = None
                self._reader = None
            self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "AsyncServeClient":
        return await self.connect()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _fail_pending(self, exc: BaseException) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_responses(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    payload = protocol.decode_line(line)
                except RequestError:
                    continue  # unparseable line; ignore
                future = self._pending.pop(str(payload.get("id")), None)
                if future is not None and not future.done():
                    future.set_result(payload)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass
        finally:
            self._fail_pending(
                ConnectionError("server closed the connection"))

    # ----------------------------------------------------------- requests
    async def request_raw(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw message dict; await the *unchecked* response.

        Returns the full response envelope (``ok`` true or false)
        without raising typed errors — the fleet router uses this to
        forward a backend's error envelope to the client verbatim.
        Transport failures (connection refused/reset/closed) still
        raise.
        """
        await self.connect()
        assert self._writer is not None and self._write_lock is not None
        future = asyncio.get_running_loop().create_future()
        self._pending[payload["id"]] = future
        try:
            async with self._write_lock:
                self._writer.write(protocol.encode(payload))
                await self._writer.drain()
            return await future
        finally:
            self._pending.pop(payload["id"], None)

    async def _request_once(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One ok-checked attempt; tears the connection down on
        transport failure so the next attempt reconnects."""
        try:
            return protocol.raise_for_response(
                await self.request_raw(payload))
        except (ConnectionError, asyncio.TimeoutError, OSError):
            await self.close()
            raise

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one raw message dict; await its ok-checked response.

        When the client was built with a ``retry`` policy, transient
        failures are retried (with backoff, reconnecting in between)
        before anything is raised.
        """
        if self.retry is None:
            return await self._request_once(payload)
        return await self.retry.acall(lambda: self._request_once(payload),
                                      stats=self.retry_stats)

    async def simulate(self, benchmark: str, engine: str = "none",
                       scale: str = "small", preset: str = "small",
                       overrides: Optional[Dict[str, Any]] = None,
                       scheduler: Optional[str] = None,
                       priority: str = "interactive",
                       deadline_s: Optional[float] = None,
                       ) -> Tuple[SimResult, Dict[str, Any]]:
        """Request one cell; returns ``(SimResult, response meta)``."""
        response = await self.request(protocol.simulate_payload(
            _next_id(), benchmark, engine, scale, preset, overrides,
            scheduler, priority, deadline_s))
        return deserialize_result(response["result"]), response.get("meta", {})

    async def stats(self) -> Dict[str, Any]:
        """Fetch the server's introspection snapshot."""
        response = await self.request({
            "v": protocol.PROTOCOL_VERSION, "id": _next_id(), "op": "stats",
        })
        return response["result"]

    async def ping(self) -> bool:
        """Liveness probe; True when the server answered."""
        response = await self.request({
            "v": protocol.PROTOCOL_VERSION, "id": _next_id(), "op": "ping",
        })
        return bool(response["result"].get("pong"))


class ServeClient:
    """Blocking facade: one :class:`AsyncServeClient` on a private loop.

    One request in flight at a time.  ``timeout`` bounds each call as a
    whole (connect, retries and backoff included) and expires as the
    builtin :class:`TimeoutError`; ``None`` waits as long as the
    simulation takes.
    """

    def __init__(self, socket_path: Optional[str] = None,
                 host: str = DEFAULT_HOST, port: int = DEFAULT_PORT,
                 timeout: Optional[float] = None,
                 connect_timeout: Optional[float] = DEFAULT_CONNECT_TIMEOUT_S,
                 retry: Optional[RetryPolicy] = None):
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._client = AsyncServeClient(
            socket_path, host, port, connect_timeout=connect_timeout,
            retry=retry)
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @property
    def retry_stats(self) -> RetryStats:
        """Attempt/retry accounting of every call made so far."""
        return self._client.retry_stats

    def _run(self, call):
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        run = self._loop.run_until_complete
        task = self._loop.create_task(call)
        run(asyncio.wait({task}, timeout=self.timeout))
        if task.done():
            return task.result()
        # Not asyncio.wait_for: before Python 3.12 the wait_for inside
        # connect() loses a cancellation that lands as the connection
        # opens, and an outer wait_for would then wait the call out.
        while not task.done():
            task.cancel()
            run(asyncio.wait({task}, timeout=0))
        # The builtin, an OSError: callers treat a timeout as one more
        # way of not reaching the server.
        raise TimeoutError(f"no response within {self.timeout}s")

    def close(self) -> None:
        """Close the connection and the loop (safe to call repeatedly)."""
        if self._loop is not None:
            self._loop.run_until_complete(self._client.close())
            self._loop.close()
            self._loop = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def simulate(self, benchmark: str, **request: Any,
                 ) -> Tuple[SimResult, Dict[str, Any]]:
        """Request one cell; returns ``(SimResult, response meta)``.

        Takes the keywords of :meth:`AsyncServeClient.simulate`.
        """
        return self._run(self._client.simulate(benchmark, **request))

    def stats(self) -> Dict[str, Any]:
        """Fetch the server's introspection snapshot."""
        return self._run(self._client.stats())

    def ping(self) -> bool:
        """Liveness probe; True when the server answered."""
        return self._run(self._client.ping())
