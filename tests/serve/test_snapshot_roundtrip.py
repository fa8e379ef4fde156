"""Watchdog snapshot round-trip through the serve error path.

A truncated remote simulation (``max_cycles`` too small, watchdog off)
must deliver the guard layer's diagnostic hang snapshot to the client
inside ``RequestFailedError.details`` — JSON-identical to what a local
run would put in ``result.extra`` — and the snapshot must still drive
:func:`repro.guard.watchdog.format_snapshot` for human triage.
"""

import asyncio
import contextlib
import json

import pytest

from repro.errors import RequestFailedError
from repro.exec import EventLog, ExecutionEngine, ResultCache
from repro.guard.watchdog import format_snapshot
from repro.serve.client import AsyncServeClient
from repro.serve.server import ServeConfig, SimulationServer

#: Overrides that force a truncated run with a snapshot attached: the
#: run stops at 40 cycles (far before completion at tiny/test scale)
#: and the watchdog is disabled so truncation — not a hang error — is
#: the failure, exercising the IncompleteRunError details path.
TRUNCATING_OVERRIDES = {"max_cycles": 40, "hang_cycles": 0}


@contextlib.asynccontextmanager
async def serving(tmp_path):
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"))
    engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache"),
                             events=EventLog())
    server = SimulationServer(engine, config)
    await server.start()
    try:
        yield server
    finally:
        await server.drain()


async def truncated_failure(client):
    with pytest.raises(RequestFailedError) as excinfo:
        await client.simulate(benchmark="MM", engine="caps", scale="tiny",
                              preset="test", overrides=TRUNCATING_OVERRIDES)
    return excinfo.value


class TestSnapshotRoundTrip:
    def test_hang_snapshot_survives_the_wire(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    error = await truncated_failure(client)
            return error
        error = asyncio.run(scenario())

        details = error.details
        assert details["error_type"] == "IncompleteRunError"
        assert details["kind"] == "permanent"
        snapshot = details["hang_snapshot"]
        # The wire is JSON; the payload must already be fully JSON-able
        # and survive a round-trip unchanged.
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["cycle"] == TRUNCATING_OVERRIDES["max_cycles"]
        assert snapshot["sms"]
        assert snapshot["ctas"]["total"] > 0

    def test_remote_snapshot_matches_local_run(self, tmp_path):
        """The served snapshot is the same artifact a local engine run
        attaches to ``result.extra`` — remote triage loses nothing."""
        from repro.errors import IncompleteRunError
        from repro.exec import execute_cell
        from repro.serve import protocol

        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    return await truncated_failure(client)
        error = asyncio.run(scenario())

        request = protocol.parse_request({
            "v": protocol.PROTOCOL_VERSION, "id": "x", "op": "simulate",
            "benchmark": "MM", "engine": "caps", "scale": "tiny",
            "preset": "test", "overrides": TRUNCATING_OVERRIDES})
        with pytest.raises(IncompleteRunError) as local:
            execute_cell(protocol.request_to_key(request))
        local_extra = local.value.result.extra
        assert error.details["hang_snapshot"] == \
            json.loads(json.dumps(local_extra["hang_snapshot"]))

    def test_snapshot_formats_for_humans(self, tmp_path):
        async def scenario():
            async with serving(tmp_path) as server:
                async with AsyncServeClient(
                        server.config.socket_path) as client:
                    return await truncated_failure(client)
        error = asyncio.run(scenario())
        text = format_snapshot(error.details["hang_snapshot"])
        assert "hang snapshot @ cycle 40" in text
        assert "SM0" in text

    def test_error_reduce_preserves_details(self):
        """RequestFailedError must pickle/copy without dropping the
        snapshot (the CLI re-raises across helper boundaries)."""
        import pickle

        error = RequestFailedError("truncated", details={
            "hang_snapshot": {"cycle": 40}})
        clone = pickle.loads(pickle.dumps(error))
        assert clone.details == error.details
        assert str(clone) == str(error)
