"""The ``stats`` payload, declared once: one dataclass per fixed-shape block.

The code that counts constructs each block and ``dataclasses.asdict``
puts it on the wire; :func:`problems` — what
:func:`repro.serve.protocol.validate_stats` /
:func:`~repro.serve.protocol.validate_router_stats` run — walks the same
fields: a block-typed field is a nested object, ``Optional`` a nullable
one, ``dict`` / ``list`` open-ended.  A payload's top level joins
:data:`BACKEND_BLOCKS` or :data:`ROUTER_BLOCKS`; blocks present only
sometimes (``faults``, ``supervisor``) are not declared.  docs/serving.md
and docs/fleet.md table every block.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (Any, Dict, List, Optional, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from repro.serve.retry import RetryStats

#: Wire names of the circuit-breaker states a router stats payload may
#: report per backend (see :mod:`repro.serve.fleet.health`).
CIRCUIT_STATES = ("closed", "open", "half_open")


@dataclass
class StatsHeader:
    """What every role answers first (:meth:`LineEndpoint.stats`)."""

    stats_schema: int
    protocol: int
    role: str
    endpoint: str
    uptime_s: float
    draining: bool


@dataclass
class EndpointCounters:
    """Per-op listener counters, incremented live on the endpoint."""

    connections: int = 0
    requests: int = 0
    responses: int = 0
    errors: int = 0
    bad_lines: int = 0


@dataclass
class BackendCounters(EndpointCounters):
    """A backend's listener counters (the ``server`` block)."""

    deadline_exceeded: int = 0


@dataclass
class RouterCounters(EndpointCounters):
    """The router's listener and routing counters (the ``router`` block)."""

    routed: int = 0
    failovers: int = 0
    degraded_disk_hits: int = 0
    degraded_errors: int = 0


@dataclass
class SpeculationStats:
    """The ``speculation`` block: all zero, kept only until the benchmark
    stops reading it (see :data:`repro.serve.protocol.STATS_SCHEMA_VERSION`)."""

    limit: int = 0
    outstanding: int = 0
    queued: int = 0
    admitted: int = 0
    rejected: int = 0
    aborted: int = 0
    promoted: int = 0
    completed: int = 0
    failed: int = 0
    warm_hits: int = 0


@dataclass
class MemcacheStats:
    """The in-memory result tier (the ``memcache`` block)."""

    entries: int
    max_entries: int
    bytes: int
    max_bytes: int
    hits: int
    misses: int
    hit_ratio: float
    evictions: int
    puts: int


@dataclass
class DiskCacheStats:
    """The engine's persistent tier (the ``disk_cache`` block)."""

    hits: int
    misses: int
    invalidated: int


@dataclass
class TierStats:
    """The windowed per-tier hit-rate series (the ``tiers`` block)."""

    window_s: float
    max_windows: int
    totals: dict
    windows: list


@dataclass
class SchedulerStats:
    """A backend's admission and dispatch counters, at the top level
    (:meth:`RequestScheduler.stats`)."""

    queue_depth: int
    queue_limit: int
    queued_interactive: int
    queued_sweep: int
    admitted: int
    shed: int
    memcache_hits: int
    dedup_joined: int
    dedup_ratio: float
    batches: int
    dispatched_cells: int
    completed: int
    failed: int
    simulations: int
    speculation: SpeculationStats
    memcache: MemcacheStats
    disk_cache: Optional[DiskCacheStats]
    latency_s: dict


@dataclass
class BackendStats:
    """The rest of a backend's top level (:meth:`SimulationServer.stats`)."""

    backend_index: int
    engine_jobs: int
    server: BackendCounters
    tiers: TierStats


@dataclass
class FleetStats:
    """Fleet totals (the router's ``fleet`` block)."""

    backends: int
    healthy: int
    vnodes: int


@dataclass
class CircuitStats:
    """One backend's breaker (:meth:`CircuitBreaker.snapshot`)."""

    state: str = field(metadata={"choices": CIRCUIT_STATES})
    failures: int
    successes: int
    failure_streak: int
    opened: int
    transitions: list


@dataclass
class ProbeStats:
    """One backend's active-probe counters, incremented live on its link."""

    sent: int = 0
    ok: int = 0
    failed: int = 0


@dataclass
class BackendHealth:
    """One entry of the router's ``backends`` list."""

    index: int
    endpoint: str
    healthy: bool
    circuit: CircuitStats
    probes: ProbeStats
    restarts: int


@dataclass
class RouterStats:
    """A router's top level past the header (:meth:`FleetRouter.stats`)."""

    fleet: FleetStats
    router: RouterCounters
    retry: RetryStats
    backends: List[BackendHealth]


#: The blocks a backend (``role: "backend"``) payload's top level joins.
BACKEND_BLOCKS: Tuple[type, ...] = (StatsHeader, BackendStats, SchedulerStats)

#: The blocks a router (``role: "router"``) payload's top level joins.
ROUTER_BLOCKS: Tuple[type, ...] = (StatsHeader, RouterStats)


def problems(blocks, payload: Dict[str, Any], prefix: str = "") -> List[str]:
    """Why ``payload`` does not carry every field of ``blocks`` (empty
    when it does): a field missing, null where not ``Optional``, or of
    another type — a bool is never a number.  Extra keys are allowed."""
    found: List[str] = []
    for block in blocks:
        hints = get_type_hints(block)
        for spec in dataclasses.fields(block):
            path = prefix + spec.name
            if spec.name not in payload:
                found.append(f"missing stats field {path!r}")
            else:
                found.extend(_mismatch(hints[spec.name], payload[spec.name],
                                       path, spec.metadata.get("choices")))
    return found


def _mismatch(kind, value, path: str, choices=None) -> List[str]:
    """Why ``value`` at ``path`` is not a ``kind`` (empty when it is)."""
    if get_origin(kind) is Union:  # Optional[X]
        if value is None:
            return []
        (kind,) = [arg for arg in get_args(kind) if arg is not type(None)]
    if value is None:
        return [f"stats field {path!r} must not be null"]
    if dataclasses.is_dataclass(kind) and isinstance(value, dict):
        return problems((kind,), value, f"{path}.")
    if get_origin(kind) is list and isinstance(value, list):
        (item,) = get_args(kind)
        return [p for i, entry in enumerate(value)
                for p in _mismatch(item, entry, f"{path}[{i}]")]
    base = dict if dataclasses.is_dataclass(kind) else get_origin(kind) or kind
    accepted = (int, float) if base is float else base
    if (not isinstance(value, accepted)
            or isinstance(value, bool) != (base is bool)):
        return [f"stats field {path!r} has type {type(value).__name__}, "
                f"expected {base.__name__}"]
    if choices is not None and value not in choices:
        return [f"stats field {path!r} is {value!r}, expected one of "
                f"{choices}"]
    return []
