"""repro.serve — simulation-as-a-service over the execution engine.

A long-running asyncio service that answers simulation requests from a
tiered cache or by batching them into the existing
:class:`~repro.exec.runner.ExecutionEngine`:

* :mod:`repro.serve.protocol` — versioned line-delimited JSON schema
  (request ids, ops, the stable error-code taxonomy, the versioned
  ``stats`` payload schema);
* :mod:`repro.serve.memcache` — in-memory LRU/LFU/FIFO/MRU/FILO result
  tier with entry/byte caps, prefix-aware per-sweep accounting,
  speculative-entry handling and eviction counters, layered over the
  persistent :class:`~repro.exec.cache.ResultCache`;
* :mod:`repro.serve.scheduler` — bounded admission with explicit
  ``overloaded`` shedding, work-conserving dispatch (requests batch
  into one engine dispatch only while the engine is busy),
  single-flight dedup of identical in-flight cells,
  interactive-over-sweep priority classes and an idle-capacity-only
  speculative lane (abort-on-pressure, promote-on-demand);
* :mod:`repro.serve.predict` — the request-stream pattern miner and
  speculative dispatcher (CAP's predict-then-prefetch applied to the
  request stream);
* :mod:`repro.serve.server` — the asyncio front-end (Unix/TCP socket,
  per-request deadlines, graceful SIGTERM drain, ``stats``
  introspection wired into :mod:`repro.obs` latency recording and
  per-tier hit-rate series);
* :mod:`repro.serve.client` — sync and async client libraries backing
  the ``repro serve`` / ``repro request`` CLI pair, with bounded
  connect timeouts, optional retry policies and hedged requests;
* :mod:`repro.serve.retry` — client-side resilience primitives
  (:class:`RetryPolicy` backoff/jitter over the transient/permanent
  error taxonomy, :func:`~repro.serve.retry.hedged` request racing);
* :mod:`repro.serve.fleet` — the fault-tolerant multi-backend fleet
  (process supervisor, consistent-hash router, per-backend circuit
  breakers, degraded-mode disk fallback) behind ``repro fleet``.

Pure stdlib (asyncio) — no new runtime dependencies.  See
``docs/serving.md`` for the protocol spec, capacity-planning knobs and
failure semantics.
"""

from repro.serve.client import (
    DEFAULT_CONNECT_TIMEOUT_S,
    AsyncServeClient,
    ServeClient,
)
from repro.serve.fleet import (
    BackendSpec,
    BackendSupervisor,
    CircuitBreaker,
    CircuitState,
    FleetRouter,
    HashRing,
    RouterConfig,
    make_fleet,
    run_fleet,
)
from repro.serve.memcache import (
    EVICTION_POLICIES,
    FIFOStrategy,
    FILOStrategy,
    LFUStrategy,
    LRUStrategy,
    MRUStrategy,
    ServeMemCache,
)
from repro.serve.predict import PatternMiner, Predictor
from repro.serve.protocol import (
    ERROR_CODES,
    OPS,
    PRIORITIES,
    PROTOCOL_VERSION,
    SOURCES,
    STATS_SCHEMA_VERSION,
    Request,
    apply_overrides,
    parse_request,
    request_to_key,
    validate_router_stats,
    validate_stats,
)
from repro.serve.retry import (
    NO_RETRY,
    HedgePolicy,
    RetryPolicy,
    RetryStats,
    hedged,
    retryable,
)
from repro.serve.scheduler import RequestScheduler, SpeculationAborted
from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServeConfig,
    SimulationServer,
    run_server,
)

__all__ = [
    "AsyncServeClient",
    "ServeClient",
    "DEFAULT_CONNECT_TIMEOUT_S",
    "BackendSpec",
    "BackendSupervisor",
    "CircuitBreaker",
    "CircuitState",
    "FleetRouter",
    "HashRing",
    "RouterConfig",
    "make_fleet",
    "run_fleet",
    "NO_RETRY",
    "HedgePolicy",
    "RetryPolicy",
    "RetryStats",
    "hedged",
    "retryable",
    "validate_router_stats",
    "EVICTION_POLICIES",
    "FIFOStrategy",
    "FILOStrategy",
    "LFUStrategy",
    "LRUStrategy",
    "MRUStrategy",
    "ServeMemCache",
    "PatternMiner",
    "Predictor",
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
    "validate_stats",
    "RequestScheduler",
    "SpeculationAborted",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "ServeConfig",
    "SimulationServer",
    "run_server",
]
