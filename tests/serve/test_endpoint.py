"""Wire behaviour of :class:`LineEndpoint`, once, for both roles.

The backend and the fleet router share one listener, so what a
connection may send it — and what every malformed line gets back — is
tested here against a subclass with no engine and no timers, with raw
bytes on a Unix socket.  Every malformed line maps to a typed
``bad_request`` error and leaves the connection usable.
"""

import asyncio
import json
import os

import pytest

from repro.config import Endpoint
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.server import LineEndpoint


class HeldEndpoint(LineEndpoint):
    """Answers a ``simulate`` only once released; draining releases."""

    role = "held"

    def __init__(self, socket_path):
        super().__init__(Endpoint(socket_path))
        self.entered = asyncio.Event()
        self.release = asyncio.Event()

    async def _simulate(self, request, payload):
        self.entered.set()
        await self.release.wait()
        return protocol.ok_response(request.id, {"echo": payload["benchmark"]})

    async def _quiesce(self):
        self.release.set()


def run(tmp_path, scenario):
    """Run ``scenario(endpoint, path)`` against a started endpoint."""
    async def main():
        path = str(tmp_path / "endpoint.sock")
        endpoint = HeldEndpoint(path)
        await endpoint.start()
        try:
            await asyncio.wait_for(scenario(endpoint, path), 30)
        finally:
            await endpoint.drain()
    asyncio.run(main())


async def recv(reader):
    line = await asyncio.wait_for(reader.readline(), 5)
    assert line, "connection closed before a response arrived"
    return json.loads(line)


def message(**fields):
    return protocol.encode({"v": protocol.PROTOCOL_VERSION, **fields})


MALFORMED = [
    # (raw line, id the error response must echo)
    (b"this is not json\n", ""),
    (b"\xff\xfe{}\n", ""),                              # invalid UTF-8
    (b"[1, 2, 3]\n", ""),                               # not an object
    (protocol.encode({"v": 999, "id": "a", "op": "ping"}), "a"),
    (message(op="ping"), ""),                           # no id
    (message(id=7, op="ping"), ""),                     # id not a string
    (message(id="", op="ping"), ""),                    # empty id
    (message(id="b", op="launch"), "b"),                # unknown op
    (message(id="c", op="simulate", benchmark="NOPE"), "c"),
]


class TestMalformedLines:
    @pytest.mark.parametrize("raw, echoed", MALFORMED)
    def test_typed_error_and_the_connection_survives(
            self, tmp_path, raw, echoed):
        async def scenario(endpoint, path):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(raw)
            error = await recv(reader)
            assert error["ok"] is False
            assert error["id"] == echoed
            assert error["error"]["code"] == "bad_request"
            assert error["error"]["kind"] == "permanent"
            writer.write(message(id="after", op="ping"))
            pong = await recv(reader)
            assert pong["id"] == "after"
            assert pong["result"] == {
                "pong": True, "v": protocol.PROTOCOL_VERSION,
                "role": "held", "draining": False}
            writer.close()
            assert endpoint.counters.requests == 2
            assert endpoint.counters.responses == 2
            assert endpoint.counters.errors == 1
            assert endpoint.counters.bad_lines == 0
        run(tmp_path, scenario)

    def test_blank_lines_are_skipped(self, tmp_path):
        async def scenario(endpoint, path):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(b"\n   \n\t\n" + message(id="s", op="stats"))
            stats = await recv(reader)
            assert stats["id"] == "s"
            assert stats["result"]["role"] == "held"
            assert stats["result"]["stats_schema"] == \
                protocol.STATS_SCHEMA_VERSION
            assert stats["result"]["endpoint"] == f"unix:{path}"
            assert stats["result"]["draining"] is False
            writer.close()
            assert endpoint.counters.requests == 1
        run(tmp_path, scenario)

    def test_oversized_line_closes_only_that_connection(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(server_module, "STREAM_LIMIT", 1024)

        async def scenario(endpoint, path):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(b"x" * 8192 + b"\n")
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            assert endpoint.counters.bad_lines == 1
            assert endpoint.counters.requests == 0
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(message(id="again", op="ping"))
            assert (await recv(reader))["result"]["pong"] is True
            writer.close()
        run(tmp_path, scenario)


class TestDrain:
    def test_in_flight_request_is_answered_before_the_socket_closes(
            self, tmp_path):
        async def scenario(endpoint, path):
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(message(id="held", op="simulate", benchmark="MM"))
            await asyncio.wait_for(endpoint.entered.wait(), 5)
            await endpoint.drain()
            assert endpoint.draining
            answer = await recv(reader)
            assert answer["id"] == "held"
            assert answer["result"] == {"echo": "MM"}
            assert await asyncio.wait_for(reader.read(), 5) == b""
            writer.close()
            assert not os.path.exists(path)
            responses = endpoint.counters.responses
            await endpoint.drain()          # a second drain is a no-op
            assert endpoint.counters.responses == responses == 1
            with pytest.raises(OSError):
                await asyncio.open_unix_connection(path)
        run(tmp_path, scenario)
