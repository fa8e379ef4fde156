"""repro.obs — cycle-level observability for the CAPS simulator.

Three independently-switchable collectors, configured through
:class:`repro.config.ObsConfig` (``GPUConfig.obs``) and documented in
``docs/observability.md``:

* **metrics** (:mod:`repro.obs.collector`) — windowed time series of
  IPC, stall breakdown, queue occupancies and prefetch events, exported
  under ``SimResult.extra["timeseries"]`` and by
  ``repro run --metrics-out``, rendered by ``repro timeline``;
* **trace** (:mod:`repro.obs.trace`) — Chrome trace-event / Perfetto
  timelines of warp, stall, leading-warp and prefetch-lifetime spans
  (``repro trace``), under ``SimResult.extra["trace"]``;
* **profile** (:mod:`repro.obs.profiler`) — host-side wall-time per
  simulator phase, under ``SimResult.extra["profile"]``.

The :class:`Observability` facade fans each simulator hook out to
whichever collectors are enabled.  The zero-overhead contract: when
``ObsConfig.enabled`` is false, :func:`build` returns ``None``, the GPU
and SMs store ``obs = None``, and every hook site is guarded by a plain
attribute test — the disabled simulator executes no observability code
beyond those tests (<2% wall time; ``perfbench`` reports the enabled
cost as ``obs.on_overhead`` on its ``sim-*`` workloads).

Typical use::

    from repro import simulate, small_config
    from repro.workloads import Scale, build

    cfg = small_config().with_obs(metrics=True, window=256)
    res = simulate(build("MM", Scale.SMALL), cfg)
    ts = res.extra["timeseries"]          # windows, totals, histogram
"""

from __future__ import annotations

from typing import Optional

from repro._lazy import lazy_exports

# The hub below is real code; the collectors' names are a lazy table,
# so a reader of one module (``repro timeline`` reads ``collector``)
# loads that module alone.
_EXPORTS = {
    "repro.obs.collector": (
        "MetricsCollector",
        "SAMPLE_FIELDS",
        "TIMESERIES_SCHEMA",
        "DISTANCE_BUCKET_CYCLES",
        "DISTANCE_BUCKETS",
        "series",
        "window_totals",
        "per_sm_ipc",
    ),
    "repro.obs.trace": (
        "TraceRecorder",
        "PREFETCH_LANE",
        "CONTROL_LANE",
        "validate_chrome_trace",
    ),
    "repro.obs.profiler": ("PhaseProfiler", "merge_profiles",
                           "format_profile"),
    "repro.obs.export": ("write_metrics", "write_json", "write_jsonl",
                         "write_csv"),
    "repro.obs.latency": ("LatencyRecorder", "SUMMARY_QUANTILES",
                          "percentile"),
    "repro.obs.cachestats": ("TierHitSeries", "SERVE_TIERS",
                             "DEFAULT_WINDOW_S", "DEFAULT_MAX_WINDOWS"),
}
__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
__all__ = ["Observability", "build"] + __all__


class Observability:
    """Fan-out hub: forwards simulator events to the enabled collectors.

    Constructed by :func:`build` before the SMs (the GPU launches
    initial CTAs during construction, so the hub must exist first) and
    shared by the GPU, every SM, the scheduler and the prefetcher.
    """

    def __init__(self, obs_config, num_sms: int):
        from repro.obs.collector import MetricsCollector
        from repro.obs.profiler import PhaseProfiler
        from repro.obs.trace import TraceRecorder

        self.config = obs_config
        self.metrics: Optional[MetricsCollector] = (
            MetricsCollector(obs_config.window, num_sms)
            if obs_config.metrics else None
        )
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder(obs_config.trace_limit) if obs_config.trace else None
        )
        self.profiler: Optional[PhaseProfiler] = (
            PhaseProfiler() if obs_config.profile else None
        )
        #: Cycle interval between metric samples (0 = no sampling).
        self.window_interval = obs_config.window if obs_config.metrics else 0

    # --------------------------------------------------- prefetch lifecycle
    def pf_issue(self, req, now: int) -> None:
        """A prefetch request was issued by an SM's prefetch port."""
        if self.metrics:
            self.metrics.pf_issue(req.sm_id, now)
        if self.trace:
            self.trace.pf_issue(req, now)

    def pf_fill(self, req, now: int) -> None:
        """A prefetch's line arrived and filled L1."""
        if self.metrics:
            self.metrics.pf_fill(req.sm_id, now)
        if self.trace:
            self.trace.pf_fill(req, now)

    def pf_useful(self, sm_id: int, distance: int, now: int) -> None:
        """A demand access hit a prefetched line (fully timely)."""
        if self.metrics:
            self.metrics.pf_useful(sm_id, distance, now)
        if self.trace:
            self.trace.pf_consume(sm_id, distance, now)

    def pf_late_merge(self, sm_id: int, waited: int, now: int) -> None:
        """A demand access merged into an in-flight prefetch."""
        if self.metrics:
            self.metrics.pf_late_merge(sm_id, waited, now)
        if self.trace:
            self.trace.pf_late_merge(sm_id, waited, now)

    def pf_early_evict(self, sm_id: int, now: int) -> None:
        """A prefetched line was evicted before any demand use."""
        if self.metrics:
            self.metrics.pf_early_evict(sm_id, now)
        if self.trace:
            self.trace.pf_early_evict(sm_id, now)

    # ------------------------------------------------------- warp lifecycle
    def warp_launch(self, warp, now: int) -> None:
        """A warp became resident (CTA launch)."""
        if self.trace:
            self.trace.warp_launch(warp, now)

    def warp_finish(self, warp, now: int) -> None:
        """A warp retired."""
        if self.trace:
            self.trace.warp_finish(warp, now)

    def warp_block(self, warp, now: int) -> None:
        """A warp blocked on outstanding load pieces."""
        if self.trace:
            self.trace.warp_block(warp, now)

    def warp_unblock(self, warp, since: int, now: int) -> None:
        """A blocked warp's last outstanding piece arrived."""
        if self.trace:
            self.trace.warp_unblock(warp, since, now)

    def lead_disarm(self, warp, now: int) -> None:
        """A PAS leading warp's marker expired (bases discovered)."""
        if self.trace:
            self.trace.lead_disarm(warp, now)

    # ------------------------------------------------------------- control
    def cta_launch(self, sm_id: int, cta_id: int, now: int,
                   interleaved: bool = False, kernel_id: int = 0) -> None:
        """A CTA was placed on an SM."""
        if self.trace:
            self.trace.cta_launch(sm_id, cta_id, now, interleaved,
                                  kernel_id)

    def eager_wakeup(self, warp, now: int) -> None:
        """PAS promoted the warp bound to an arrived prefetch."""
        if self.trace:
            self.trace.eager_wakeup(warp, now)

    def percta_write(self, sm_id: int, cta_id: int, pc: int, kind: str,
                     now: int) -> None:
        """CAP wrote a PerCTA table entry (kind: register/advance)."""
        if self.trace:
            self.trace.percta_write(sm_id, cta_id, pc, kind, now)

    # ----------------------------------------------------------- lifecycle
    def flush(self, gpu, now: int) -> None:
        """Close the current sampling window (GPU window boundary)."""
        if self.metrics:
            self.metrics.flush(gpu, now)

    def finalize(self, gpu, now: int) -> None:
        """End of run: final partial window + close open trace spans."""
        if self.metrics:
            self.metrics.flush(gpu, now)
        if self.trace:
            self.trace.finalize(gpu, now)

    def attach_results(self, extra: dict, num_sms: int) -> None:
        """Store every enabled collector's payload into ``SimResult.extra``."""
        if self.metrics:
            extra["timeseries"] = self.metrics.to_payload()
        if self.trace:
            extra["trace"] = self.trace.to_chrome_trace(num_sms)
        if self.profiler:
            extra["profile"] = self.profiler.as_dict()


def build(config, num_sms: int) -> Optional[Observability]:
    """Create the observability hub for a run, or ``None`` when disabled.

    ``None`` (rather than a no-op object) keeps the disabled fast path
    to a single attribute test at each hook site.
    """
    obs_config = config.obs
    if not obs_config.enabled:
        return None
    return Observability(obs_config, num_sms)
