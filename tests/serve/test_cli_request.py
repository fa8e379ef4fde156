"""`repro request` against a live server: the printed forms are pinned.

``--json`` must print exactly the lossless result of the same cell
executed in-process (plus the response ``meta``), and the table form
the same headline numbers.  The CLI is blocking, so ``main`` runs in a
worker thread while the server's loop keeps turning in this one.
"""

import asyncio
import json

from repro.cli import EXIT_OK, main
from repro.exec import execute_cell
from repro.result import serialize_result
from repro.serve import protocol
from tests.serve.test_server_e2e import serving

CELL = ("MM", "caps", "tiny", "test")
ARGV = ["request", "MM", "--engine", "caps", "--scale", "tiny",
        "--preset", "test"]


def test_json_and_table_forms_match_direct_execution(tmp_path, capsys):
    async def scenario():
        async with serving(tmp_path) as server:
            loop = asyncio.get_running_loop()
            sock = ["--socket", server.config.socket_path]
            outputs = []
            for form in (["--json"], []):
                rc = await loop.run_in_executor(None, main, ARGV + form + sock)
                assert rc == EXIT_OK
                outputs.append(capsys.readouterr().out)
            return outputs

    as_json, as_table = asyncio.run(scenario())
    direct = execute_cell(protocol.request_to_key(protocol.parse_request(
        protocol.simulate_payload("pin-1", *CELL))))

    printed = json.loads(as_json)
    assert printed["result"] == json.loads(json.dumps(serialize_result(direct)))
    assert printed["meta"]["source"] == "dispatch"
    assert printed["meta"]["cell"]

    rows = {line.rsplit(None, 1)[0].strip(): line.split()[-1]
            for line in as_table.splitlines()[3:]}
    assert as_table.splitlines()[0] == "MM @ tiny via caps"
    assert rows["source"] == "memcache"  # the second request: same cell
    assert rows["IPC"] == f"{direct.ipc:.3f}"
    assert rows["cycles"] == str(direct.cycles)
    assert rows["DRAM reads"] == str(direct.dram_reads)
