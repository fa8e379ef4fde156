"""repro.serve — simulation-as-a-service over the execution engine.

A long-running asyncio service that answers simulation requests from a
tiered cache or by batching them into the existing
:class:`~repro.exec.runner.ExecutionEngine`:

* :mod:`repro.serve.protocol` — versioned line-delimited JSON schema
  (request ids, ops, the stable error-code taxonomy, the versioned
  ``stats`` payload's validators);
* :mod:`repro.serve.stats` — the ``stats`` payload declared once, one
  dataclass per fixed-shape block;
* :mod:`repro.serve.memcache` — in-memory LRU result tier with
  entry/byte caps and eviction counters, layered over the persistent
  :class:`~repro.exec.cache.ResultCache`;
* :mod:`repro.serve.scheduler` — bounded admission with explicit
  ``overloaded`` shedding, work-conserving dispatch (requests batch
  into one engine dispatch only while the engine is busy),
  single-flight dedup of identical in-flight cells and
  interactive-over-sweep priority classes;
* :mod:`repro.serve.server` — the asyncio front-end: the
  :class:`~repro.serve.server.LineEndpoint` listener a backend and the
  fleet router share (Unix/TCP socket, pipelined connections, graceful
  drain) and the backend built on it (per-request deadlines, ``stats``
  introspection wired into :mod:`repro.obs` latency recording and
  per-tier hit-rate series);
* :mod:`repro.serve.client` — the pipelining async client and its
  blocking facade behind ``repro request``, with bounded connect
  timeouts and optional retry policies;
* :mod:`repro.serve.retry` — client-side resilience
  (:class:`RetryPolicy` backoff/jitter over the transient/permanent
  error taxonomy);
* :mod:`repro.serve.fleet` — the fault-tolerant multi-backend fleet
  (process supervisor, consistent-hash router, per-backend circuit
  breakers, degraded-mode disk fallback) behind ``repro fleet``.

Pure stdlib (asyncio) — no new runtime dependencies.  See
``docs/serving.md`` for the protocol spec, capacity-planning knobs and
failure semantics.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.config": (
        "DEFAULT_HOST",
        "DEFAULT_PORT",
        "RouterConfig",
        "ServeConfig",
    ),
    "repro.serve.client": (
        "DEFAULT_CONNECT_TIMEOUT_S",
        "AsyncServeClient",
        "ServeClient",
    ),
    "repro.serve.fleet.supervisor": ("BackendSpec", "BackendSupervisor"),
    "repro.serve.fleet.health": ("CircuitBreaker", "CircuitState"),
    "repro.serve.fleet.router": (
        "FleetRouter",
        "make_fleet",
        "run_fleet",
    ),
    "repro.serve.fleet.hashring": ("HashRing",),
    "repro.serve.memcache": ("ServeMemCache",),
    "repro.serve.protocol": (
        "ERROR_CODES",
        "OPS",
        "PRIORITIES",
        "PROTOCOL_VERSION",
        "SOURCES",
        "STATS_SCHEMA_VERSION",
        "Request",
        "apply_overrides",
        "parse_request",
        "request_to_key",
        "validate_router_stats",
        "validate_stats",
    ),
    "repro.serve.retry": ("RetryPolicy", "RetryStats", "retryable"),
    "repro.serve.scheduler": ("RequestScheduler",),
    "repro.serve.server": (
        "LineEndpoint",
        "SimulationServer",
        "run_server",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
