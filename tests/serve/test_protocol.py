"""Tests for the serve wire protocol (repro.serve.protocol)."""

import json

import pytest

from repro.analysis.driver import make_key
from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.errors import (
    BadRequestError,
    ConfigError,
    DeadlineExceededError,
    OverloadedError,
    RequestError,
    ShuttingDownError,
)
from repro.exec import key_fingerprint
from repro.serve import protocol
from repro.workloads import Scale


def simulate_payload(**extra):
    payload = {
        "v": protocol.PROTOCOL_VERSION,
        "id": "t-1",
        "op": "simulate",
        "benchmark": "MM",
    }
    payload.update(extra)
    return payload


class TestEncoding:
    def test_encode_is_one_json_line(self):
        wire = protocol.encode({"v": 1, "id": "x", "op": "ping"})
        assert wire.endswith(b"\n")
        assert wire.count(b"\n") == 1
        assert json.loads(wire) == {"v": 1, "id": "x", "op": "ping"}

    def test_decode_round_trip(self):
        message = {"v": 1, "id": "x", "op": "stats"}
        assert protocol.decode_line(protocol.encode(message)) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(BadRequestError):
            protocol.decode_line(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(BadRequestError):
            protocol.decode_line(b"[1, 2]\n")


class TestParseRequest:
    def test_minimal_simulate(self):
        request = protocol.parse_request(simulate_payload())
        assert request.op == "simulate"
        assert request.benchmark == "MM"
        assert request.engine == "none"
        assert request.scale is Scale.SMALL
        assert request.priority == "interactive"
        assert request.deadline_s is None

    def test_full_simulate(self):
        request = protocol.parse_request(simulate_payload(
            engine="caps", scale="tiny", preset="test",
            overrides={"prefetch": {"nlp_degree": 2}},
            scheduler="pas", priority="sweep", deadline_s=2,
        ))
        assert request.engine == "caps"
        assert request.scale is Scale.TINY
        assert request.preset == "test"
        assert request.overrides == {"prefetch": {"nlp_degree": 2}}
        assert request.scheduler is SchedulerKind.PAS
        assert request.priority == "sweep"
        assert request.deadline_s == 2.0

    def test_benchmark_case_insensitive(self):
        request = protocol.parse_request(simulate_payload(benchmark="mm"))
        assert request.benchmark == "MM"

    def test_ping_and_stats_skip_simulate_fields(self):
        for op in ("ping", "stats"):
            request = protocol.parse_request({
                "v": protocol.PROTOCOL_VERSION, "id": "t", "op": op,
            })
            assert request.op == op

    @pytest.mark.parametrize("mutation", [
        {"v": 0},
        {"v": None},
        {"id": ""},
        {"id": 7},
        {"op": "simulate!"},
        {"benchmark": "NOPE"},
        {"engine": "bogus"},
        {"scale": "huge"},
        {"preset": "datacenter"},
        {"overrides": ["not", "a", "dict"]},
        {"scheduler": "fifo"},
        {"priority": "background"},
        {"deadline_s": 0},
        {"deadline_s": -1},
        {"deadline_s": "soon"},
    ])
    def test_rejections(self, mutation):
        with pytest.raises(BadRequestError):
            protocol.parse_request(simulate_payload(**mutation))


class TestApplyOverrides:
    def test_empty_is_identity(self):
        config = tiny_config()
        assert protocol.apply_overrides(config, {}) is config

    def test_scalar_override(self):
        config = protocol.apply_overrides(tiny_config(), {"num_sms": 4})
        assert config.num_sms == 4

    def test_nested_override(self):
        config = protocol.apply_overrides(
            tiny_config(), {"prefetch": {"nlp_degree": 3}})
        assert config.prefetch.nlp_degree == 3

    def test_enum_override(self):
        config = protocol.apply_overrides(tiny_config(), {"scheduler": "gto"})
        assert config.scheduler is SchedulerKind.GTO

    def test_unknown_field_rejected(self):
        with pytest.raises(BadRequestError, match="unknown config field"):
            protocol.apply_overrides(tiny_config(), {"warp_speed": 9})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(BadRequestError):
            protocol.apply_overrides(tiny_config(),
                                     {"prefetch": {"bogus": 1}})

    def test_invalid_value_maps_to_bad_request(self):
        with pytest.raises(BadRequestError):
            protocol.apply_overrides(tiny_config(), {"num_sms": -1})

    def test_invalid_enum_value_rejected(self):
        with pytest.raises(BadRequestError):
            protocol.apply_overrides(tiny_config(), {"scheduler": "???"})

    @pytest.mark.parametrize("overrides", [
        {"prefetch": 5},        # a scalar where a nested config goes
        {"prefetch": [1, 2]},   # ... or a list
        {"dram": "x"},          # used to escape as AttributeError
        {"num_sms": 2.5},       # a float is not an int
        {"num_sms": True},      # nor is a bool
        {"deep_checks": 1},     # and an int is not a bool
        {"engine": None},
        {"multi": {"spatial_split": "half"}},
    ])
    def test_wrong_shape_or_type_rejected(self, overrides):
        """Malformed values are refused here, before the request is
        keyed or admitted, not by a crash inside a worker."""
        with pytest.raises(BadRequestError, match="config field"):
            protocol.apply_overrides(tiny_config(), overrides)

    def test_float_field_accepts_an_int(self):
        config = protocol.apply_overrides(
            tiny_config(), {"multi": {"predictor_cpi_prior": 3}})
        assert config.multi.predictor_cpi_prior == 3


class TestRequestToKey:
    def test_mirrors_serial_cli_key(self):
        """A served request names the exact cell the serial CLI would."""
        request = protocol.parse_request(simulate_payload(
            engine="caps", scale="tiny", preset="test"))
        served = protocol.request_to_key(request)
        serial = make_key("MM", "caps", config=tiny_config(),
                          scale=Scale.TINY)
        assert served == serial
        assert key_fingerprint(served) == key_fingerprint(serial)

    def test_explicit_scheduler_respected(self):
        request = protocol.parse_request(simulate_payload(
            engine="caps", preset="test", scheduler="lrr"))
        key = protocol.request_to_key(request)
        assert key.config.scheduler is SchedulerKind.LRR

    def test_default_scheduler_pairing(self):
        """No scheduler -> the engine's Figure 10 pairing (caps -> pas)."""
        request = protocol.parse_request(simulate_payload(
            engine="caps", preset="test"))
        assert protocol.request_to_key(request).config.scheduler is \
            SchedulerKind.PAS

    def test_overrides_change_fingerprint(self):
        base = protocol.parse_request(simulate_payload(preset="test"))
        tweaked = protocol.parse_request(simulate_payload(
            preset="test", overrides={"prefetch": {"nlp_degree": 3}}))
        assert key_fingerprint(protocol.request_to_key(base)) != \
            key_fingerprint(protocol.request_to_key(tweaked))


class TestResponses:
    def test_ok_response_envelope(self):
        out = protocol.ok_response("r1", {"x": 1}, meta={"source": "memcache"})
        assert out["ok"] is True
        assert out["id"] == "r1"
        assert out["v"] == protocol.PROTOCOL_VERSION
        assert out["result"] == {"x": 1}
        assert out["meta"] == {"source": "memcache"}

    @pytest.mark.parametrize("exc,code,kind", [
        (BadRequestError("nope"), "bad_request", "permanent"),
        (OverloadedError("full"), "overloaded", "transient"),
        (DeadlineExceededError("late"), "deadline_exceeded", "transient"),
        (ShuttingDownError("bye"), "shutting_down", "transient"),
        (ConfigError("bad cfg"), "bad_request", "permanent"),
        # Unknown exceptions classify transient (they get a retry).
        (RuntimeError("boom"), "internal", "transient"),
    ])
    def test_error_response_codes(self, exc, code, kind):
        out = protocol.error_response("r2", exc)
        assert out["ok"] is False
        assert out["error"]["code"] == code
        assert out["error"]["kind"] == kind
        assert out["error"]["message"]

    def test_every_error_code_is_stable(self):
        for code in protocol.ERROR_CODES:
            assert code in protocol.CODE_TO_ERROR

    def test_raise_for_response_passthrough_on_ok(self):
        payload = protocol.ok_response("r", {})
        assert protocol.raise_for_response(payload) is payload

    def test_raise_for_response_raises_typed_error(self):
        payload = protocol.error_response("r", OverloadedError("queue full"))
        with pytest.raises(OverloadedError, match="queue full"):
            protocol.raise_for_response(payload)

    def test_raise_for_response_unknown_code_falls_back(self):
        with pytest.raises(RequestError):
            protocol.raise_for_response(
                {"ok": False, "error": {"code": "martian", "message": "?"}})
