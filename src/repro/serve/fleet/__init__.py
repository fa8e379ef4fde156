"""repro.serve.fleet — the fault-tolerant multi-backend serve fleet.

Three cooperating layers turn one :class:`~repro.serve.server.
SimulationServer` into a fleet that survives backend crashes:

* :mod:`repro.serve.fleet.supervisor` — spawns N backend processes and
  babysits them (restart-on-crash with exponential backoff and a
  restart budget, SIGTERM graceful drain, zero orphans);
* :mod:`repro.serve.fleet.hashring` — consistent-hashes request
  fingerprints across backends so each backend's caches stay warm for
  its stable partition of the key space;
* :mod:`repro.serve.fleet.health` — per-backend circuit breakers
  (closed → open → half-open) fed by passive error accounting and the
  router's active ping probes;
* :mod:`repro.serve.fleet.router` — the protocol-transparent front-end
  that routes, fails over, serves the disk cache read-only when a
  key's backends are down, and answers typed ``degraded`` errors with
  retry-after hints when even that fails.

Chaos-tested against the serve-tier faults of
:class:`repro.guard.faults.FaultPlan` (kill mid-flight, slow,
blackhole, torn responses); see ``docs/fleet.md``.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.serve.fleet.hashring": ("HashRing",),
    "repro.serve.fleet.health": ("CircuitBreaker", "CircuitState"),
    "repro.serve.fleet.router": (
        "BackendLink",
        "FleetRouter",
        "RouterConfig",
        "make_fleet",
        "run_fleet",
    ),
    "repro.serve.fleet.supervisor": (
        "DEFAULT_RESTART_BUDGET",
        "BackendSpec",
        "BackendSupervisor",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
