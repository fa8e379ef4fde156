"""Simulation integrity layer: watchdog, invariants, fault injection.

A cycle-level model fails in two characteristic ways: it *wedges* (a
scheduler that never issues, a lost memory response) and it *lies*
(counters silently drift apart while every run still "completes").  This
package guards against both, and gives the execution engine the chaos
tooling to prove its own recovery paths work:

* :mod:`repro.guard.watchdog` — no-forward-progress detector hooked into
  the :func:`repro.sim.gpu.simulate` main loop; raises
  :class:`repro.errors.SimulationHangError` with a diagnostic snapshot
  (per-warp scoreboard, ready queues, MSHR occupancy, in-flight request
  ages, DRAM queue depths) instead of spinning;
* :mod:`repro.guard.invariants` — always-on end-of-run conservation
  checks (request/MSHR/prefetch/CTA balance) plus opt-in per-cycle
  structural audits (``deep_checks``);
* :mod:`repro.guard.faults` — the one seeded deterministic
  :class:`FaultPlan`, consulted by the memory subsystem
  (dropped/delayed responses), the execution runner (transient worker
  crashes), the result cache (corrupted entries) and
  :class:`repro.serve.server.SimulationServer` (backend kills
  mid-flight, slow/blackholed requests, torn response lines);
* :mod:`repro.guard.bundle` — on-disk diagnostic bundles (config, seed,
  snapshot, event tail) written whenever a sweep cell fails.

See ``docs/robustness.md`` for the full design.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.guard.bundle": ("DIAGNOSTICS_DIRNAME", "write_diagnostic_bundle"),
    "repro.guard.faults": (
        "SERVE_KILL_EXIT",
        "FaultPlan",
        "MemoryFaultInjector",
        "ServeFaultInjector",
    ),
    "repro.guard.invariants": ("InvariantChecker",),
    "repro.guard.watchdog": (
        "DEFAULT_HANG_CYCLES",
        "Watchdog",
        "build_snapshot",
        "format_snapshot",
    ),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
