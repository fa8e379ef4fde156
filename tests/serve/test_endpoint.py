"""Wire behaviour of :class:`LineEndpoint`, once, for both roles.

The backend and the fleet router share one listener, so what a
connection may send it — and what every malformed line gets back — is
tested here against a subclass with no engine and no timers, with raw
bytes on a Unix socket.  Every malformed line maps to a typed
``bad_request`` error and leaves the connection usable; a seeded fuzzer
then sends a real backend hundreds of mutations of one valid
``simulate`` line, none of which may be admitted.
"""

import asyncio
import json
import os
import random

import pytest

from repro.config import Endpoint, ServeConfig
from repro.exec import ExecutionEngine
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.server import LineEndpoint, SimulationServer


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


# ------------------------------------------------------------- the fuzzer
#: The line every mutation starts from: valid, and naming every field.
VALID = protocol.simulate_payload(
    "fuzz", "MM", engine="caps", scale="tiny", preset="test",
    overrides={"prefetch": {"prefetch_window": 9}}, scheduler="pas",
    priority="sweep", deadline_s=5)

#: Per field, values it does not accept: wrong types, unknown names and
#: the internal cell names (``trace``, ``NN``) the protocol refuses.
REFUSED = {
    "v": ["1", 1.0, True, None, [1], 2, 0],
    "id": [7, None, "", [], {}, True],
    "op": [3, None, "SIMULATE", "run", [], {}],
    "benchmark": [5, None, "", [], {}, "NOPE", "NN", "NN+MM", "MM+NN",
                  "MM+", "+MM", "M M"],
    "engine": [5, None, [], {}, "", "CAPS", "trace", "nope", "caps "],
    "scale": [1, None, [], {}, "TINY", "huge"],
    "preset": [1, None, [], {}, "", "tiny"],
    "overrides": [[], "x", 5, True, None],
    "scheduler": [5, [], {}, "fifo", "PAS"],
    "priority": [5, None, [], {}, "urgent", ""],
    "deadline_s": ["5", [], {}, -1, 0, True, False, float("nan"),
                   float("inf")],
}

#: Override trees naming no field, or a field with a value it refuses:
#: wrong types and names; well-typed sizes far above the config's
#: bounds, two of them within each field's own bound but over the GPU's
#: total cache lines; DRAM rows and bursts under one; a LAP macro-block
#: of zero lines and each baseline engine's knob far above its bound.
REFUSED_OVERRIDES = [
    {"warp_speed": 9}, {"prefetch": {"nope": 1}}, {"prefetch": 5},
    {"prefetch": {"prefetch_window": "9"}},
    {"prefetch": {"prefetch_window": 1.5}},
    {"prefetch": {"prefetch_window": 0}},
    {"prefetch": {"prefetch_window": {"a": 1}}}, {"num_sms": "4"},
    {"num_sms": True}, {"num_sms": 0}, {"scheduler": "nope"},
    {"l1d": {"nope": 1}}, {"engine": "nope"}, {"max_cycles": 0},
    {"multi": {"alloc_policy": "nope"}}, {"obs": []},
    {"num_sms": 10**30}, {"l1d": {"size_bytes": 2**60}},
    {"max_ctas_per_sm": 10**9, "max_warps_per_sm": 10**9},
    {"num_sms": 1024, "l1d": {"size_bytes": 1 << 24, "line_bytes": 1,
                              "assoc": 1}, "l2": {"line_bytes": 1}},
    {"num_sms": 1024, "l1d": {"size_bytes": 1 << 16}},
    {"dram": {"row_bytes": 0}}, {"dram": {"row_bytes": -4096}},
    {"dram": {"row_hit_cycles": -5, "row_miss_cycles": -5}},
    {"prefetch": {"lap_macroblock_lines": 0}},
    *({"prefetch": {name: 10**9}} for name in (
        "nlp_degree", "inter_warp_distance", "intra_warp_depth",
        "lap_macroblock_lines", "lap_miss_trigger")),
]

#: Field names a ``simulate`` request does not have.
UNKNOWN_FIELDS = ["frob", "overide", "Engine", "benchmarks", "deadline",
                  "ID"]

NON_OBJECTS = [b"1", b"-2.5", b'"simulate"', b"null", b"true", b"[]",
               b"[1, 2]", b"NaN", b"{}{}", b"{", b"}", b'{"v": 1,}']


def mutations(seed=32, count=320):
    """``count`` distinct seeded lines, each a mutation of :data:`VALID`
    that no server may admit."""
    rng = random.Random(seed)
    line = protocol.encode(VALID)[:-1]
    out = [text + b"\n" for text in NON_OBJECTS]
    for name, values in REFUSED.items():
        out += [protocol.encode({**VALID, name: value}) for value in values]
    for tree in REFUSED_OVERRIDES:
        out.append(protocol.encode({**VALID, "overrides": tree}))
    for name in UNKNOWN_FIELDS:
        value = rng.choice([1, "caps", None, {"prefetch": {}}])
        out.append(protocol.encode({**VALID, name: value}))
    out = dict.fromkeys(out)
    while len(out) < count:
        if rng.random() < 0.5:      # truncation: the object never closes
            text = line[:rng.randrange(1, len(line))]
        else:                       # byte flip: never valid UTF-8
            at = rng.randrange(len(line))
            text = line[:at] + bytes([line[at] ^ 0x80]) + line[at + 1:]
        out[text + b"\n"] = None
    return list(out)


class TestFuzzedRequestLines:
    def test_every_mutation_is_refused_and_the_connection_survives(
            self, tmp_path):
        lines = mutations()
        assert len(set(lines)) == len(lines) >= 300

        async def main():
            path = str(tmp_path / "fuzz.sock")
            server = SimulationServer(ExecutionEngine(),
                                      ServeConfig(socket_path=path))
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(path)
                for n, raw in enumerate(lines):
                    writer.write(raw)
                    error = (await recv(reader))["error"]
                    assert error["code"] in protocol.ERROR_CODES, raw
                    assert error["code"] == "bad_request", (raw, error)
                    writer.write(message(id=f"p{n}", op="ping"))
                    assert (await recv(reader))["result"]["pong"] is True
                writer.close()
                stats = server.stats()
                assert stats["admitted"] == 0
                assert stats["simulations"] == 0
                assert stats["server"]["errors"] == len(lines)
            finally:
                await server.drain()
        asyncio.run(main())
