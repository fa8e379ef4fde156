"""Wire protocol of the simulation service: versioned line-delimited JSON.

Every message is one JSON object on one ``\\n``-terminated UTF-8 line.
Requests carry a protocol version ``v``, a caller-chosen ``id`` (echoed
verbatim in the response, so clients may pipeline) and an ``op``:

``simulate``
    run (or serve from cache) one cell of the experiment matrix —
    benchmark, prefetch engine, scale, config preset plus nested
    :class:`~repro.config.GPUConfig` overrides, optional scheduler,
    priority class (``interactive``/``sweep``) and per-request deadline;
``stats``
    introspection snapshot (queue depth, cache hit ratios, dedup ratio,
    per-stage latency summaries — see ``docs/serving.md``);
``ping``
    liveness probe.

Responses are ``{"v", "id", "ok": true, "result", "meta"}`` on success
or ``{"v", "id", "ok": false, "error": {"code", "kind", "message"}}``
on failure, where ``code`` is a stable member of :data:`ERROR_CODES`
(the request-level failure taxonomy of :mod:`repro.errors`) and
``kind`` its transient/permanent classification — clients back off and
retry on transient codes (``overloaded``, ``deadline_exceeded``,
``shutting_down``, ``degraded``) and fix the payload on permanent
ones.  Error envelopes may additionally carry ``retry_after_s`` (a
back-off hint, see :class:`~repro.errors.DegradedError`) and
``details`` (a JSON-able diagnostic payload — for a hung simulation,
the watchdog snapshot travels here verbatim).

A ``simulate`` result is the lossless
:func:`repro.result.serialize_result` payload, so a served result
deserializes byte-identical to the same cell run through the serial
CLI — the round-trip-fidelity acceptance check of the serve layer.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.config import (
    GPUConfig,
    SchedulerKind,
    fermi_config,
    small_config,
    test_config,
)
from repro.errors import (
    BadRequestError,
    ConfigError,
    DeadlineExceededError,
    DegradedError,
    OverloadedError,
    RequestError,
    RequestFailedError,
    ShuttingDownError,
    classify,
)
from repro.prefetch.factory import ENGINE_CHOICES
from repro.workloads.base import Scale

if TYPE_CHECKING:
    from repro.exec.cache import RunKey

#: Bump on incompatible request/response schema changes; the server
#: rejects mismatched requests with ``bad_request`` instead of guessing.
PROTOCOL_VERSION = 1

#: Per-connection stream limit, both ends: responses embed serialized
#: results (potentially with observability payloads), so the default
#: 64 KiB readline limit is far too small.
STREAM_LIMIT = 16 * 1024 * 1024

#: Valid ``op`` values of a request.
OPS = ("simulate", "stats", "ping")

#: Priority classes accepted by ``simulate`` (admission order: every
#: queued interactive cell dispatches before any sweep cell).
PRIORITIES = ("interactive", "sweep")

#: Every field a ``simulate`` request may carry (see
#: :func:`simulate_payload`); any other is refused.
SIMULATE_FIELDS = frozenset((
    "v", "id", "op", "benchmark", "engine", "scale", "preset", "overrides",
    "scheduler", "priority", "deadline_s"))

#: Config presets a request may name (resolved server-side).
PRESETS = {
    "small": small_config,
    "fermi": fermi_config,
    "test": test_config,
}

#: Version of the ``stats`` introspection payload.  Bumped whenever a
#: field is removed or changes meaning; additive fields do not bump it.
#: v2 added the ``stats_schema`` marker and the ``tiers`` block; v3 the
#: ``role`` discriminator (``backend``/``router``) and with it the fleet
#: router's payload (:data:`repro.serve.stats.ROUTER_BLOCKS`).  v4
#: removes ``memcache.policy`` / ``memcache.prefixes`` from the backend
#: payload and the ``health`` timeline and two always-zero ``retry``
#: counters from the router's.  v5 removes the speculative lane:
#: ``predictor``, ``queued_speculative``, ``memcache.spec_*`` and the
#: ``predicted`` tier.  ``speculation`` stays, constant zero, only
#: because ``perfbench/serve_mix.py`` still reads it; the benchmark
#: change that stops reading it removes the block too.
STATS_SCHEMA_VERSION = 5

#: Values the ``meta.source`` field of a simulate response may take;
#: ``disk-degraded`` marks a read-only disk-cache answer the fleet
#: router served while the key's backends were down.
SOURCES = ("memcache", "dedup", "dispatch", "disk-degraded")

#: Stable error codes a response may carry.
ERROR_CODES = (
    "bad_request",
    "overloaded",
    "deadline_exceeded",
    "shutting_down",
    "degraded",
    "simulation_failed",
    "internal",
)

#: Error code -> exception class, used by clients to re-raise typed
#: errors; the inverse mapping is implicit in ``RequestError.code``.
CODE_TO_ERROR = {
    "bad_request": BadRequestError,
    "overloaded": OverloadedError,
    "deadline_exceeded": DeadlineExceededError,
    "shutting_down": ShuttingDownError,
    "degraded": DegradedError,
    "simulation_failed": RequestFailedError,
    "internal": RequestError,
}


@dataclass(frozen=True)
class Request:
    """One decoded client request (any op)."""

    id: str
    op: str
    benchmark: str = ""
    engine: str = "none"
    scale: Scale = Scale.SMALL
    preset: str = "small"
    overrides: Dict[str, Any] = field(default_factory=dict)
    scheduler: Optional[SchedulerKind] = None
    priority: str = "interactive"
    deadline_s: Optional[float] = None


def encode(message: Dict[str, Any]) -> bytes:
    """Serialize one protocol message to its wire form (one JSON line)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises :class:`~repro.errors.BadRequestError` on anything that is
    not a single JSON object.
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"undecodable request line: {exc}") from exc
    if not isinstance(payload, dict):
        raise BadRequestError(
            f"request must be a JSON object (got {type(payload).__name__})"
        )
    return payload


def simulate_payload(req_id: str, benchmark: str, engine: str = "none",
                     scale: str = "small", preset: str = "small",
                     overrides: Optional[Dict[str, Any]] = None,
                     scheduler: Optional[str] = None,
                     priority: str = "interactive",
                     deadline_s: Optional[float] = None) -> Dict[str, Any]:
    """Build the wire form of one ``simulate`` request (the inverse of
    :func:`parse_request`; optional fields are left out when unset)."""
    payload: Dict[str, Any] = {
        "v": PROTOCOL_VERSION, "id": req_id, "op": "simulate",
        "benchmark": benchmark, "engine": engine, "scale": scale,
        "preset": preset, "priority": priority,
    }
    if overrides:
        payload["overrides"] = overrides
    if scheduler is not None:
        payload["scheduler"] = scheduler
    if deadline_s is not None:
        payload["deadline_s"] = deadline_s
    return payload


def parse_request(payload: Dict[str, Any]) -> Request:
    """Validate a decoded message dict into a :class:`Request`.

    Every validation failure raises
    :class:`~repro.errors.BadRequestError` with an actionable message;
    the ``id`` (when present and well-formed) still makes it into the
    error response so pipelined clients can correlate.
    """
    version = payload.get("v")
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise BadRequestError(
            f"unsupported protocol version {version!r} "
            f"(server speaks v{PROTOCOL_VERSION})"
        )
    req_id = payload.get("id")
    if not isinstance(req_id, str) or not req_id:
        raise BadRequestError("request needs a non-empty string 'id'")
    op = payload.get("op")
    if op not in OPS:
        raise BadRequestError(f"unknown op {op!r}; choose from {OPS}")
    if op != "simulate":
        return Request(id=req_id, op=op)
    unknown = sorted(set(payload) - SIMULATE_FIELDS)
    if unknown:
        # A mistyped optional field would otherwise name another cell.
        raise BadRequestError(f"unknown simulate field(s) {unknown}; "
                              f"choose from {sorted(SIMULATE_FIELDS)}")
    # Server side only: a client builds payloads without the suite.
    from repro.workloads.suite import ALL_BENCHMARKS, normalize_benchmark

    # A benchmark may be one abbreviation or a "+"-joined co-run pair
    # ("MRQ+SGEMM"); each part is validated and canonicalized (aliases
    # resolved) so equivalent spellings share a cache cell.
    try:
        benchmark = normalize_benchmark(str(payload.get("benchmark", "")))
    except KeyError:
        raise BadRequestError(
            f"unknown benchmark {payload.get('benchmark')!r}; choose one "
            f"of {sorted(ALL_BENCHMARKS)} or a co-run pair 'A+B'"
        ) from None
    engine = payload.get("engine", "none")
    if engine not in ENGINE_CHOICES:
        raise BadRequestError(
            f"unknown engine {engine!r}; choose from {ENGINE_CHOICES}"
        )
    try:
        scale = Scale(payload.get("scale", "small"))
    except ValueError:
        raise BadRequestError(
            f"unknown scale {payload.get('scale')!r}; choose from "
            f"{[s.value for s in Scale]}"
        ) from None
    preset = payload.get("preset", "small")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise BadRequestError(
            f"unknown config preset {preset!r}; choose from "
            f"{sorted(PRESETS)}"
        )
    overrides = payload.get("overrides", {})
    if not isinstance(overrides, dict):
        raise BadRequestError("'overrides' must be an object of "
                              "GPUConfig field overrides")
    scheduler = None
    if payload.get("scheduler") is not None:
        try:
            scheduler = SchedulerKind(payload["scheduler"])
        except ValueError:
            raise BadRequestError(
                f"unknown scheduler {payload['scheduler']!r}; choose from "
                f"{[k.value for k in SchedulerKind]}"
            ) from None
    priority = payload.get("priority", "interactive")
    if priority not in PRIORITIES:
        raise BadRequestError(
            f"unknown priority {priority!r}; choose from {PRIORITIES}"
        )
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        if (isinstance(deadline_s, bool)
                or not isinstance(deadline_s, (int, float))
                or not 0 < deadline_s < math.inf):
            raise BadRequestError(
                f"'deadline_s' must be a positive number (got {deadline_s!r})"
            )
        deadline_s = float(deadline_s)
    return Request(
        id=req_id, op="simulate", benchmark=benchmark, engine=engine,
        scale=scale, preset=preset, overrides=overrides,
        scheduler=scheduler, priority=priority, deadline_s=deadline_s,
    )


def _accepts(current: Any, value: Any) -> bool:
    """Whether wire ``value`` has the type of scalar field value
    ``current``: ``bool`` and ``int`` only their own, ``float`` also an
    ``int``, anything else (``str``, ``None``) exactly its type."""
    if isinstance(current, bool) or isinstance(value, bool):
        return isinstance(current, bool) and isinstance(value, bool)
    if isinstance(current, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(current))


def apply_overrides(config: GPUConfig, overrides: Dict[str, Any]):
    """Apply a nested override dict onto a (frozen) config dataclass.

    Scalar fields take a value of their current type, enum fields are
    parsed from their wire value, and nested config dataclasses take a
    dict and recurse (``{"prefetch": {"nlp_degree": 2}}``).  Unknown
    field names, values of the wrong shape or type, and whatever the
    config's own validation rejects all raise
    :class:`~repro.errors.BadRequestError`, so a malformed payload is
    refused before it is keyed, admitted or simulated.
    """
    if not overrides:
        return config
    fields = {f.name: f for f in dataclasses.fields(config)}
    patch: Dict[str, Any] = {}
    for name, value in overrides.items():
        if name not in fields:
            raise BadRequestError(
                f"unknown config field {name!r} on "
                f"{type(config).__name__}; choose from {sorted(fields)}"
            )
        current = getattr(config, name)
        if dataclasses.is_dataclass(current):
            if not isinstance(value, dict):
                raise BadRequestError(
                    f"config field {name!r} takes an object of "
                    f"{type(current).__name__} overrides (got {value!r})")
            patch[name] = apply_overrides(current, value)
        elif isinstance(current, enum.Enum):
            try:
                patch[name] = type(current)(value)
            except ValueError:
                raise BadRequestError(
                    f"invalid value {value!r} for enum field {name!r}"
                ) from None
        elif _accepts(current, value):
            patch[name] = value
        else:
            raise BadRequestError(
                f"config field {name!r} takes "
                f"{type(current).__name__} values (got {value!r})")
    try:
        return dataclasses.replace(config, **patch)
    except Exception as exc:
        raise BadRequestError(f"invalid config overrides: {exc}") from exc


def request_to_key(request: Request) -> RunKey:
    """Resolve a validated ``simulate`` request into its canonical cell
    through :func:`repro.exec.cache.make_key`, so a request and the
    serial CLI name (and therefore cache-share) the exact same cell."""
    from repro.exec.cache import make_key

    config = apply_overrides(PRESETS[request.preset](), request.overrides)
    return make_key(request.benchmark, request.engine, config=config,
                    scale=request.scale, scheduler=request.scheduler)


# ------------------------------------------------------------------ stats
def _validate(payload: Dict[str, Any], role: str) -> list:
    # Imported here: a client that never validates never loads it.
    from repro.serve import stats

    blocks = stats.BACKEND_BLOCKS if role == "backend" else stats.ROUTER_BLOCKS
    problems = []
    version = payload.get("stats_schema")
    if version != STATS_SCHEMA_VERSION:
        problems.append(
            f"stats_schema is {version!r}, expected {STATS_SCHEMA_VERSION}")
    if payload.get("role") != role:
        problems.append(f"role is {payload.get('role')!r}, expected {role!r}")
    return problems + stats.problems(blocks, payload)


def validate_stats(payload: Dict[str, Any]) -> list:
    """Check a backend stats payload against the fields of
    :data:`repro.serve.stats.BACKEND_BLOCKS`.

    Returns a list of human-readable problems (empty when the payload
    conforms).  Extra fields are always allowed — the schema versions
    removals and retypes, not additions.
    """
    return _validate(payload, "backend")


def validate_router_stats(payload: Dict[str, Any]) -> list:
    """Check a fleet-router stats payload against the fields of
    :data:`repro.serve.stats.ROUTER_BLOCKS` (every ``backends`` entry
    against :class:`~repro.serve.stats.BackendHealth`)."""
    return _validate(payload, "router")


# ------------------------------------------------------------- responses
def ok_response(req_id: str, result: Dict[str, Any],
                meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build a success response envelope."""
    out = {"v": PROTOCOL_VERSION, "id": req_id, "ok": True, "result": result}
    if meta:
        out["meta"] = meta
    return out


def encode_ok(req_id: str, result: bytes,
              meta: Optional[Dict[str, Any]] = None) -> bytes:
    """``encode(ok_response(req_id, <result>, meta))`` around a result
    already encoded (:func:`repro.exec.cache.result_bytes`), byte for
    byte: sorted, the envelope's keys run ``id``, ``meta``, ``ok``,
    ``result``, ``v``: the fragment replaces an empty result's ``{}``."""
    tail = b',"v":%d}\n' % PROTOCOL_VERSION
    return encode(ok_response(req_id, {}, meta))[:-len(tail) - 2] + result + tail


def error_response(req_id: str, exc: BaseException) -> Dict[str, Any]:
    """Map an exception onto the error-response envelope.

    :class:`~repro.errors.RequestError` subclasses carry their own wire
    code; everything else is folded into ``simulation_failed`` (the
    dispatch raised) or ``internal``, with the transient/permanent kind
    taken from :func:`repro.errors.classify` so clients know whether a
    retry can help.
    """
    if isinstance(exc, RequestError):
        code = exc.code
    elif isinstance(exc, ConfigError):
        code = "bad_request"
    else:
        code = "internal"
    kind = classify(exc)
    error: Dict[str, Any] = {
        "code": code,
        "kind": kind.value,
        "message": str(exc) or repr(exc),
    }
    details = getattr(exc, "details", None)
    if details:
        error["details"] = details
    retry_after_s = getattr(exc, "retry_after_s", None)
    if retry_after_s is not None:
        error["retry_after_s"] = retry_after_s
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": False,
        "error": error,
    }


def raise_for_response(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Client-side: return ``payload`` if ok, else raise the typed error.

    The raised exception re-carries the envelope's structured extras:
    ``details`` (e.g. a hang snapshot on ``simulation_failed``) and
    ``retry_after_s`` (the back-off hint on ``degraded``).
    """
    if payload.get("ok"):
        return payload
    error = payload.get("error") or {}
    cls = CODE_TO_ERROR.get(error.get("code"), RequestError)
    exc = cls(error.get("message", "request failed"))
    if isinstance(error.get("details"), dict):
        exc.details = error["details"]
    if isinstance(error.get("retry_after_s"), (int, float)):
        exc.retry_after_s = float(error["retry_after_s"])
    raise exc
