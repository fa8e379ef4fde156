"""Sampled time-series collectors (the metrics half of :mod:`repro.obs`).

A :class:`MetricsCollector` turns one simulation into a sequence of
fixed-width *windows* (``ObsConfig.window`` cycles, default 512).  At
each window boundary — and once more for the final partial window — it
records:

* **cumulative-counter deltas** over the window: instructions (total and
  per SM, for per-SM IPC), issue cycles, the stall-reason breakdown
  (``stall_mem_all`` / ``stall_mem_partial`` / ``stall_other``), and LSU
  replay cycles;
* **instantaneous occupancies** at the boundary: warps waiting on
  memory, scheduler ready-queue depth, L1-MSHR occupancy, L2 input-queue
  depth, DRAM read-queue depth, and in-flight prefetches;
* **prefetch events** that occurred inside the window: issues, fills,
  useful consumptions, late (in-flight) merges and early evictions,
  together with the issue→use distance sums behind the paper's Figure 14
  metrics.

Prefetch events are reported by the SM through the same call sites that
feed :class:`repro.prefetch.stats.PrefetchStats`, so the series totals
reconcile *exactly* with the end-of-run counters that Figure 14 reads —
the property the ``tests/obs`` golden tests assert.

The collector is never consulted when disabled: the SM and GPU hold
``obs = None`` and skip every hook, so a default config pays nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Flat per-window sample columns, in row order.  ``cycle`` is the
#: *end* of the window; counter columns are deltas over the window;
#: ``*_depth`` / ``*_occupancy`` / ``waiting_warps`` / ``prefetch_inflight``
#: are instantaneous values at the window boundary.
SAMPLE_FIELDS = (
    "cycle",
    "instructions",
    "issue_cycles",
    "stall_mem_all",
    "stall_mem_partial",
    "stall_other",
    "replay_cycles",
    "waiting_warps",
    "ready_queue_depth",
    "mshr_occupancy",
    "l2_queue_depth",
    "dram_queue_depth",
    "prefetch_inflight",
    "pf_issued",
    "pf_fills",
    "pf_useful",
    "pf_late_merge",
    "pf_early_evicted",
    "pf_distance_sum",
    "pf_late_wait_sum",
)

#: Width (cycles) of one bucket of the prefetch lead-distance histogram.
DISTANCE_BUCKET_CYCLES = 64
#: Bucket count; the last bucket absorbs every longer distance.
DISTANCE_BUCKETS = 32

#: ``extra["timeseries"]`` payload format version (bump on layout change).
TIMESERIES_SCHEMA = 1


class MetricsCollector:
    """Windowed time-series collector for one :class:`repro.sim.gpu.GPU`.

    The GPU calls :meth:`flush` at every window boundary and once at the
    end of the run; the SMs call the ``pf_*`` hooks as prefetch events
    happen.  :meth:`to_payload` renders everything into the JSON-able
    dict stored under ``SimResult.extra["timeseries"]``.
    """

    def __init__(self, window: int, num_sms: int):
        if window < 1:
            raise ValueError(f"window must be >= 1 (got {window})")
        self.window = window
        self.num_sms = num_sms
        self.samples: List[List[float]] = []
        #: Per-window per-SM instruction deltas (per-SM IPC numerators),
        #: parallel to :attr:`samples`.
        self.sm_instructions: List[List[int]] = []
        self._last_cycle = 0
        self._last_sm_instr = [0] * num_sms
        self._last = {
            "instructions": 0,
            "issue_cycles": 0,
            "stall_mem_all": 0,
            "stall_mem_partial": 0,
            "stall_other": 0,
            "replay_cycles": 0,
        }
        # Prefetch event counters, reset at each window boundary.
        self._win_pf = [0] * 7  # issued, fills, useful, late, early, dsum, wsum
        self.distance_hist = [0] * DISTANCE_BUCKETS
        # Run-level prefetch totals (monotonic; never reset).
        self.tot_issued = 0
        self.tot_fills = 0
        self.tot_useful = 0
        self.tot_late_merge = 0
        self.tot_early_evicted = 0
        self.tot_distance_sum = 0
        self.tot_late_wait_sum = 0

    # ------------------------------------------------------ prefetch events
    def pf_issue(self, sm_id: int, now: int) -> None:
        """A prefetch request entered the SM's prefetch miss queue."""
        self._win_pf[0] += 1
        self.tot_issued += 1

    def pf_fill(self, sm_id: int, now: int) -> None:
        """A prefetched line filled L1 (untouched or with waiters)."""
        self._win_pf[1] += 1
        self.tot_fills += 1

    def pf_useful(self, sm_id: int, distance: int, now: int) -> None:
        """A demand access hit a prefetched line ``distance`` cycles
        after the prefetch was issued (a fully timely prefetch)."""
        self._win_pf[2] += 1
        self._win_pf[5] += distance
        self.tot_useful += 1
        self.tot_distance_sum += distance
        self._bucket(distance)

    def pf_late_merge(self, sm_id: int, waited: int, now: int) -> None:
        """A demand access merged into an in-flight prefetch that had
        been travelling for ``waited`` cycles (partial latency hiding)."""
        self._win_pf[3] += 1
        self._win_pf[6] += waited
        self.tot_late_merge += 1
        self.tot_late_wait_sum += waited
        self._bucket(waited)

    def pf_early_evict(self, sm_id: int, now: int) -> None:
        """A prefetched line was evicted before any demand use."""
        self._win_pf[4] += 1
        self.tot_early_evicted += 1

    def _bucket(self, lead: int) -> None:
        idx = lead // DISTANCE_BUCKET_CYCLES
        if idx >= DISTANCE_BUCKETS:
            idx = DISTANCE_BUCKETS - 1
        self.distance_hist[idx] += 1

    # ------------------------------------------------------------ sampling
    def flush(self, gpu, now: int) -> None:
        """Close the current window at cycle ``now`` and emit a sample."""
        if now <= self._last_cycle and self.samples:
            return  # empty window (end-of-run flush landed on a boundary)
        sms = gpu.sms
        cur = {
            "instructions": 0,
            "issue_cycles": 0,
            "stall_mem_all": 0,
            "stall_mem_partial": 0,
            "stall_other": 0,
            "replay_cycles": 0,
        }
        sm_instr: List[int] = []
        waiting = ready = mshr = pf_inflight = 0
        for sm in sms:
            st = sm.stats
            cur["instructions"] += st.instructions
            cur["issue_cycles"] += st.issue_cycles
            cur["stall_mem_all"] += st.stall_mem_all
            cur["stall_mem_partial"] += st.stall_mem_partial
            cur["stall_other"] += st.stall_other
            cur["replay_cycles"] += st.replay_cycles
            sm_instr.append(st.instructions)
            waiting += sm.waiting_mem_warps
            ready += sm.scheduler.ready_depth()
            mshr += len(sm.l1.mshr)
            pf_inflight += len(sm._inflight_prefetch)
        sub = gpu.subsystem
        row = [
            now,
            cur["instructions"] - self._last["instructions"],
            cur["issue_cycles"] - self._last["issue_cycles"],
            cur["stall_mem_all"] - self._last["stall_mem_all"],
            cur["stall_mem_partial"] - self._last["stall_mem_partial"],
            cur["stall_other"] - self._last["stall_other"],
            cur["replay_cycles"] - self._last["replay_cycles"],
            waiting,
            ready,
            mshr,
            sub.l2_queue_depth(),
            sub.dram_queue_depth(),
            pf_inflight,
            *self._win_pf,
        ]
        self.samples.append(row)
        self.sm_instructions.append(
            [a - b for a, b in zip(sm_instr, self._last_sm_instr)]
        )
        self._last = cur
        self._last_sm_instr = sm_instr
        self._last_cycle = now
        self._win_pf = [0] * 7

    # ------------------------------------------------------------- export
    def to_payload(self) -> Dict[str, Any]:
        """JSON-able payload for ``SimResult.extra["timeseries"]``."""
        return {
            "schema": TIMESERIES_SCHEMA,
            "window": self.window,
            "num_sms": self.num_sms,
            "fields": list(SAMPLE_FIELDS),
            "samples": [list(r) for r in self.samples],
            "sm_instructions": [list(r) for r in self.sm_instructions],
            "totals": {
                "pf_issued": self.tot_issued,
                "pf_fills": self.tot_fills,
                "pf_useful": self.tot_useful,
                "pf_late_merge": self.tot_late_merge,
                "pf_early_evicted": self.tot_early_evicted,
                "pf_distance_sum": self.tot_distance_sum,
                "pf_late_wait_sum": self.tot_late_wait_sum,
            },
            "distance_hist": {
                "bucket_cycles": DISTANCE_BUCKET_CYCLES,
                "counts": list(self.distance_hist),
            },
        }


# ---------------------------------------------------- payload arithmetic
def series(payload: Dict[str, Any], field: str) -> List[float]:
    """Extract one named column from a timeseries payload."""
    idx = payload["fields"].index(field)
    return [row[idx] for row in payload["samples"]]


def window_totals(payload: Dict[str, Any], field: str) -> float:
    """Sum a delta-valued column over every window (== run total)."""
    return sum(series(payload, field))


def per_sm_ipc(payload: Dict[str, Any]) -> List[List[float]]:
    """Per-window per-SM IPC matrix (``samples`` rows × ``num_sms``)."""
    out: List[List[float]] = []
    prev = 0
    for cyc, instr in zip(series(payload, "cycle"),
                          payload["sm_instructions"]):
        span = max(1, int(cyc) - prev)
        out.append([i / span for i in instr])
        prev = int(cyc)
    return out

