"""The versioned ``stats`` payload contract (protocol.validate_stats).

The ``repro request --stats --json`` output is a documented, versioned
schema (``stats_schema`` v4, see ``docs/serving.md``) declared once, as
the dataclasses of :mod:`repro.serve.stats`.  These tests hold a live
server's payload to those declarations — every declared field present
and well-typed, every key it carries declared — prove the payload
survives a JSON wire round-trip unchanged, and check that the validator
actually catches removals, retypes and nulls.
"""

import asyncio
import copy
import dataclasses
import json
import typing

from repro.exec import EventLog, ExecutionEngine, ResultCache
from repro.serve import protocol, stats as blocks
from repro.serve.client import AsyncServeClient
from repro.serve.server import ServeConfig, SimulationServer


def field_kinds(block):
    """``{field: (type, nullable)}`` of one block, Optional unwrapped."""
    kinds = {}
    for name, kind in typing.get_type_hints(block).items():
        args = typing.get_args(kind)
        nullable = type(None) in args
        if nullable:
            (kind,) = [arg for arg in args if arg is not type(None)]
        kinds[name] = (kind, nullable)
    return kinds


def nested(kind):
    """The block a field of type ``kind`` holds (directly or as list
    items), else ``None``."""
    if typing.get_origin(kind) is list:
        (kind,) = typing.get_args(kind)
    return kind if dataclasses.is_dataclass(kind) else None


def all_blocks(roots=blocks.BACKEND_BLOCKS + blocks.ROUTER_BLOCKS):
    """Every block reachable from ``roots``, each once, roots first."""
    found = list(dict.fromkeys(roots))
    for block in found:
        for kind, _ in field_kinds(block).values():
            if nested(kind) is not None and nested(kind) not in found:
                found.append(nested(kind))
    return found


def undeclared(roots, payload, prefix=""):
    """Keys of ``payload`` (recursively, through block-typed fields)
    that no field of ``roots`` declares."""
    kinds = {name: kind for block in roots
             for name, (kind, _) in field_kinds(block).items()}
    extra = [prefix + key for key in payload if key not in kinds]
    for name, kind in kinds.items():
        block, value = nested(kind), payload.get(name)
        values = value if isinstance(value, list) else [value]
        for entry in values if block is not None else ():
            if isinstance(entry, dict):
                extra += undeclared((block,), entry, f"{prefix}{name}.")
    return extra


def live_stats(tmp_path, **config_kwargs):
    """Stats payload from a served stats request after one simulate."""
    config_kwargs.setdefault("batch_window_s", 0.01)
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         **config_kwargs)
    engine = ExecutionEngine(jobs=1, cache=ResultCache(tmp_path / "cache"),
                             events=EventLog())

    async def scenario():
        server = SimulationServer(engine, config)
        await server.start()
        try:
            async with AsyncServeClient(config.socket_path) as client:
                await client.simulate(benchmark="MM", engine="caps",
                                      scale="tiny", preset="test")
                return await client.stats()
        finally:
            await server.drain()

    return asyncio.run(scenario())


class TestLivePayload:
    def test_live_server_stats_conform_to_schema(self, tmp_path):
        stats = live_stats(tmp_path)
        assert protocol.validate_stats(stats) == []
        assert stats["stats_schema"] == protocol.STATS_SCHEMA_VERSION
        # ... and it carries nothing its blocks do not declare.
        assert undeclared(blocks.BACKEND_BLOCKS, stats) == []

    def test_disabled_predictor_is_null_and_still_valid(self, tmp_path):
        stats = live_stats(tmp_path, predict=False)
        assert stats["predictor"] is None
        assert protocol.validate_stats(stats) == []

    def test_payload_round_trips_through_json(self, tmp_path):
        """The wire form (sorted, compact) reparses to the same object
        and still validates — no non-JSON types leak into the payload."""
        stats = live_stats(tmp_path)
        wire = protocol.encode({"v": 1, "id": "s", "ok": True,
                                "result": stats})
        reparsed = protocol.decode_line(wire)["result"]
        assert reparsed == stats
        assert protocol.validate_stats(reparsed) == []


class TestValidatorCatchesTampering:
    def base(self, tmp_path):
        stats = live_stats(tmp_path)
        assert protocol.validate_stats(stats) == []
        return stats

    def test_missing_field_reported(self, tmp_path):
        stats = self.base(tmp_path)
        del stats["speculation"]["warm_hits"]
        problems = protocol.validate_stats(stats)
        assert any("speculation.warm_hits" in p for p in problems)

    def test_wrong_type_reported(self, tmp_path):
        stats = self.base(tmp_path)
        stats["memcache"]["hits"] = "3"
        problems = protocol.validate_stats(stats)
        assert any("memcache.hits" in p for p in problems)

    def test_bool_where_number_expected_reported(self, tmp_path):
        stats = self.base(tmp_path)
        stats["shed"] = False
        problems = protocol.validate_stats(stats)
        assert any("'shed'" in p and "bool" in p for p in problems)

    def test_null_in_non_nullable_field_reported(self, tmp_path):
        stats = self.base(tmp_path)
        stats["tiers"] = None
        problems = protocol.validate_stats(stats)
        assert any("'tiers'" in p for p in problems)

    def test_version_mismatch_reported(self, tmp_path):
        stats = self.base(tmp_path)
        stats["stats_schema"] = 1
        problems = protocol.validate_stats(stats)
        assert any("stats_schema" in p for p in problems)

    def test_extra_fields_are_allowed(self, tmp_path):
        """Additive evolution must not trip the validator (the schema
        versions removals and retypes only)."""
        stats = copy.deepcopy(self.base(tmp_path))
        stats["new_experimental_block"] = {"x": 1}
        assert protocol.validate_stats(stats) == []


class TestSchemaSpec:
    def test_schema_paths_are_well_formed(self):
        """Every field has a type the validator walks, and the blocks
        one payload joins at its top level never share a key."""
        for block in all_blocks():
            for name, (kind, _) in field_kinds(block).items():
                assert (kind in (int, float, str, bool, dict, list)
                        or nested(kind) is not None), (block, name, kind)
        for roots in (blocks.BACKEND_BLOCKS, blocks.ROUTER_BLOCKS):
            names = [spec.name for block in roots
                     for spec in dataclasses.fields(block)]
            assert len(names) == len(set(names)), roots

    def test_schema_is_json_documentable(self):
        """The declarations serialize (for docs tooling)."""
        doc = {block.__name__: {name: (kind.__name__
                                       if isinstance(kind, type)
                                       else str(kind))
                                for name, (kind, _)
                                in field_kinds(block).items()}
               for block in all_blocks()}
        assert json.loads(json.dumps(doc)) == doc
