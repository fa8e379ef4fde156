"""Client/server hardening satellites: connect timeouts, stale sockets.

Two small robustness contracts that the fleet leans on: connection
*establishment* is bounded separately from per-request deadlines, and a
crashed server's leftover Unix-socket file never blocks the next bind.
"""

import asyncio
import gc
import os
import socket

import pytest

from repro.serve import protocol
from repro.serve.client import (
    DEFAULT_CONNECT_TIMEOUT_S,
    AsyncServeClient,
    ServeClient,
)
from repro.serve.server import (
    ServeConfig,
    SimulationServer,
    remove_stale_socket,
)


def make_server(tmp_path):
    from repro.exec import EventLog, ExecutionEngine

    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         batch_window_s=0.01)
    return SimulationServer(ExecutionEngine(jobs=1, events=EventLog()),
                            config)


class TestConnectTimeout:
    def test_defaults_are_distinct_from_request_deadline(self):
        """The connect bound must not inherit the (unbounded-by-default)
        request timeout: a dead endpoint fails fast even when requests
        are allowed to run long."""
        sync = ServeClient(socket_path="/tmp/nope.sock")
        assert sync.timeout is None
        assert sync.connect_timeout == DEFAULT_CONNECT_TIMEOUT_S
        ordinary = AsyncServeClient(socket_path="/tmp/nope.sock")
        assert ordinary.connect_timeout == DEFAULT_CONNECT_TIMEOUT_S

    def test_both_knobs_are_independent(self):
        client = ServeClient(socket_path="/tmp/nope.sock",
                             timeout=120.0, connect_timeout=0.5)
        assert client.timeout == 120.0
        assert client.connect_timeout == 0.5

    def test_async_connect_to_dead_tcp_endpoint_is_bounded(self):
        """A blackholed TCP connect must fail within connect_timeout,
        not hang for the (much longer) request deadline."""
        async def scenario():
            # A bound-but-never-accepting listener with a full backlog
            # keeps connects pending — the timeout has to cut them off.
            gate = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            gate.bind(("127.0.0.1", 0))
            gate.listen(1)
            port = gate.getsockname()[1]
            blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            blocker.setblocking(False)
            try:
                blocker.connect_ex(("127.0.0.1", port))
                client = AsyncServeClient(host="127.0.0.1", port=port,
                                          connect_timeout=0.2)
                start = asyncio.get_running_loop().time()
                try:
                    await client.connect()
                except (asyncio.TimeoutError, ConnectionError, OSError):
                    pass
                finally:
                    await client.close()
                # Bounded: nowhere near a request-deadline scale wait.
                assert asyncio.get_running_loop().time() - start < 2.0
            finally:
                blocker.close()
                gate.close()
        asyncio.run(scenario())


class TestStaleSocket:
    def make_dead_socket(self, path):
        """A socket file whose listener died without unlinking (the
        post-SIGKILL state a chaos kill leaves behind)."""
        holder = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        holder.bind(str(path))
        holder.close()  # closed, never unlinked: stale file remains
        assert os.path.exists(path)

    def test_dead_socket_file_is_unlinked(self, tmp_path):
        path = tmp_path / "stale.sock"
        self.make_dead_socket(path)
        remove_stale_socket(str(path))
        assert not os.path.exists(path)

    def test_regular_file_is_never_touched(self, tmp_path):
        path = tmp_path / "precious.txt"
        path.write_text("not a socket")
        remove_stale_socket(str(path))
        assert path.read_text() == "not a socket"

    def test_missing_file_is_a_no_op(self, tmp_path):
        remove_stale_socket(str(tmp_path / "never-existed.sock"))

    def test_live_listener_is_left_alone(self, tmp_path):
        path = tmp_path / "live.sock"
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(path))
        listener.listen(1)
        try:
            remove_stale_socket(str(path))
            assert os.path.exists(path)
        finally:
            listener.close()

    def test_server_rebinds_over_a_crash_leftover(self, tmp_path):
        """The e2e contract: a restarting backend binds its old path
        even though the previous process died without cleanup."""
        async def scenario():
            server = make_server(tmp_path)
            self.make_dead_socket(server.config.socket_path)
            await server.start()
            try:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    assert await client.ping()
            finally:
                await server.drain()
        asyncio.run(scenario())


# A ResourceWarning raised in a finaliser is unraisable; pytest turns
# it into a PytestUnraisableExceptionWarning, which must fail too.
@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
class TestConcurrentConnect:
    """connect() is re-entrant: requests pipelined onto a cold client
    (what the router's ``BackendLink.forward`` does) share one
    connection, and close() never strands one half-opened."""

    @staticmethod
    async def listen(path, accepted):
        """A ping-answering listener that records every connection."""
        async def handle(reader, writer):
            accepted.append(writer)
            try:
                while True:
                    line = await reader.readline()
                    if not line:
                        break
                    request = protocol.decode_line(line)
                    writer.write(protocol.encode(protocol.ok_response(
                        request["id"], {"pong": True})))
                    await writer.drain()
            finally:
                writer.close()
        return await asyncio.start_unix_server(handle, path)

    def test_concurrent_first_requests_share_one_connection(self, tmp_path):
        async def scenario():
            accepted = []
            path = str(tmp_path / "s.sock")
            server = await self.listen(path, accepted)
            client = AsyncServeClient(socket_path=path)
            try:
                answers = await asyncio.wait_for(asyncio.gather(*[
                    client.request_raw({"v": protocol.PROTOCOL_VERSION,
                                        "id": f"r{i}", "op": "ping"})
                    for i in range(8)]), 30)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()
            assert len(accepted) == 1
            assert [a["id"] for a in answers] == [f"r{i}" for i in range(8)]
            assert all(a["ok"] for a in answers)
        asyncio.run(scenario())
        gc.collect()

    def test_close_during_connect_leaves_no_open_writer(self, tmp_path):
        async def scenario():
            accepted = []
            path = str(tmp_path / "s.sock")
            server = await self.listen(path, accepted)
            client = AsyncServeClient(socket_path=path)
            connecting = asyncio.get_running_loop().create_task(
                client.connect())
            await asyncio.sleep(0)  # the connect is now in flight
            try:
                await asyncio.wait_for(client.close(), 30)
                await asyncio.wait_for(connecting, 30)
                assert client._writer is None
                assert client._reader_task is None
            finally:
                server.close()
                await server.wait_closed()
        asyncio.run(scenario())
        gc.collect()
