"""Chrome trace-event timeline recorder (the tracing half of :mod:`repro.obs`).

:class:`TraceRecorder` turns one simulation into a `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON object that loads directly in Perfetto (https://ui.perfetto.dev)
or Chrome's ``about://tracing``.  One simulated **cycle is mapped to one
microsecond** of trace time (the format's ``ts``/``dur`` unit), so the
viewer's time axis reads directly in cycles.

Recorded events (``pid`` = SM id, ``tid`` = lane within the SM):

* ``warp …`` complete spans (``ph: "X"``) — one per warp, launch to
  retirement, on the warp's own lane;
* ``stall:mem`` spans — every interval a warp spent blocked with load
  pieces outstanding (the per-warp latency-tolerance view);
* ``lead`` spans — the interval a PAS leading warp kept its marker
  armed (launch → base addresses discovered), the hoist Figure 14b's
  distance gain comes from;
* ``prefetch …`` spans on the SM's prefetch lane — issue to L1 fill of
  every prefetch, with PC/line address in ``args``;
* instant events (``ph: "i"``) — ``pf_consume`` (demand hit on a
  prefetched line, with its issue→use distance), ``pf_late_merge``,
  ``eager_wakeup`` (PAS promoted the bound warp), ``percta_register`` /
  ``percta_advance`` (CAP table writes) and ``cta_launch``.

In concurrent-kernel runs (``repro run A+B``) every span and
CTA launch carries the owning kernel id in ``args.kernel`` and warp
spans from kernels other than 0 get a ``k<id>:`` name prefix, so one
co-running kernel's activity can be isolated in the viewer.

The recorder caps itself at ``ObsConfig.trace_limit`` events;
:attr:`TraceRecorder.dropped` counts what the cap discarded (also
reported in the exported JSON under ``metadata``), so a truncated trace
is visible as such instead of silently incomplete.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

#: ``tid`` of the per-SM prefetch lane (warp lanes use the warp slot).
PREFETCH_LANE = 9_999
#: ``tid`` of the per-SM control lane (CTA launches, table writes).
CONTROL_LANE = 9_998

#: Event categories a consumer can filter on.
CATEGORIES = ("warp", "stall", "lead", "prefetch", "table", "sched", "cta")


class TraceRecorder:
    """Accumulates trace events during one run; exports Chrome JSON."""

    def __init__(self, limit: int = 100_000):
        if limit < 1:
            raise ValueError(f"trace_limit must be >= 1 (got {limit})")
        self.limit = limit
        self.events: List[Dict[str, Any]] = []
        self.dropped = 0
        # open-span bookkeeping
        self._stall_since: Dict[int, int] = {}      # warp uid -> cycle
        self._pf_open: Dict[int, int] = {}          # id(req)   -> cycle

    # ------------------------------------------------------------ plumbing
    def _emit(self, event: Dict[str, Any]) -> None:
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)

    def _span(self, *, pid: int, tid: int, name: str, cat: str,
              start: int, end: int, args: Optional[dict] = None) -> None:
        ev = {"ph": "X", "pid": pid, "tid": tid, "name": name, "cat": cat,
              "ts": start, "dur": max(0, end - start)}
        if args:
            ev["args"] = args
        self._emit(ev)

    def _instant(self, *, pid: int, tid: int, name: str, cat: str,
                 ts: int, args: Optional[dict] = None) -> None:
        ev = {"ph": "i", "s": "t", "pid": pid, "tid": tid, "name": name,
              "cat": cat, "ts": ts}
        if args:
            ev["args"] = args
        self._emit(ev)

    # ----------------------------------------------------------- warp spans
    def warp_launch(self, warp, now: int) -> None:
        """A warp became resident (CTA launch)."""
        # The lifetime span is emitted at retirement; nothing to record
        # yet beyond the leading marker handled by lead_disarm().

    def warp_finish(self, warp, now: int) -> None:
        """A warp retired: emit its lifetime span.

        In multi-kernel runs the span name carries a ``k<id>:`` prefix
        and ``args.kernel`` the owning kernel id, so Perfetto can
        filter one co-running kernel's activity; single-kernel runs
        (kernel 0) keep their unprefixed names.
        """
        kid = getattr(warp, "kernel_id", 0)
        prefix = f"k{kid}:" if kid else ""
        self._span(
            pid=warp.sm_id, tid=warp.slot,
            name=f"{prefix}warp {warp.cta_id}.{warp.warp_in_cta}",
            cat="warp",
            start=warp.launch_cycle, end=now,
            args={"cta": warp.cta_id, "warp_in_cta": warp.warp_in_cta,
                  "instructions": warp.instructions_issued,
                  "kernel": kid},
        )
        since = self._stall_since.pop(warp.uid, None)
        if since is not None:
            self._stall(warp, since, now)

    def warp_block(self, warp, now: int) -> None:
        """A warp blocked with load pieces outstanding."""
        self._stall_since[warp.uid] = now

    def warp_unblock(self, warp, since: int, now: int) -> None:
        """A blocked warp's last outstanding piece arrived."""
        start = self._stall_since.pop(warp.uid, since)
        self._stall(warp, start, now)

    def _stall(self, warp, start: int, end: int) -> None:
        kid = getattr(warp, "kernel_id", 0)
        self._span(pid=warp.sm_id, tid=warp.slot, name="stall:mem",
                   cat="stall", start=start, end=end,
                   args={"kernel": kid} if kid else None)

    def lead_disarm(self, warp, now: int) -> None:
        """A leading warp finished discovering its CTA's base addresses."""
        self._span(
            pid=warp.sm_id, tid=warp.slot, name="lead", cat="lead",
            start=warp.launch_cycle, end=now,
            args={"cta": warp.cta_id, "loads": warp.lead_loads_issued,
                  "kernel": getattr(warp, "kernel_id", 0)},
        )

    # ----------------------------------------------------- prefetch spans
    def pf_issue(self, req, now: int) -> None:
        """A prefetch request was issued (entered the miss queue)."""
        self._pf_open[id(req)] = now

    def pf_fill(self, req, now: int) -> None:
        """A prefetch's line filled L1; emit its in-flight span."""
        start = self._pf_open.pop(id(req), now)
        self._span(
            pid=req.sm_id, tid=PREFETCH_LANE,
            name=f"prefetch pc={req.pc:#x}", cat="prefetch",
            start=start, end=now,
            args={"line_addr": req.line_addr, "pc": req.pc,
                  "target_warp": req.target_warp,
                  "kernel": getattr(req, "kernel_id", 0)},
        )

    def pf_consume(self, sm_id: int, distance: int, now: int) -> None:
        """A demand access consumed a prefetched line in L1."""
        self._instant(pid=sm_id, tid=PREFETCH_LANE, name="pf_consume",
                      cat="prefetch", ts=now, args={"distance": distance})

    def pf_late_merge(self, sm_id: int, waited: int, now: int) -> None:
        """A demand access merged into a still-in-flight prefetch."""
        self._instant(pid=sm_id, tid=PREFETCH_LANE, name="pf_late_merge",
                      cat="prefetch", ts=now, args={"waited": waited})

    def pf_early_evict(self, sm_id: int, now: int) -> None:
        """A prefetched line was evicted before any use."""
        self._instant(pid=sm_id, tid=PREFETCH_LANE, name="pf_early_evict",
                      cat="prefetch", ts=now)

    # ------------------------------------------------------- control lane
    def cta_launch(self, sm_id: int, cta_id: int, now: int,
                   interleaved: bool, kernel_id: int = 0) -> None:
        """A CTA was launched onto an SM."""
        self._instant(pid=sm_id, tid=CONTROL_LANE, name="cta_launch",
                      cat="cta", ts=now,
                      args={"cta": cta_id, "interleaved": interleaved,
                            "kernel": kernel_id})

    def eager_wakeup(self, warp, now: int) -> None:
        """PAS promoted a warp whose prefetched data arrived."""
        self._instant(pid=warp.sm_id, tid=CONTROL_LANE, name="eager_wakeup",
                      cat="sched", ts=now, args={"warp": warp.slot})

    def percta_write(self, sm_id: int, cta_id: int, pc: int, kind: str,
                     now: int) -> None:
        """CAP wrote a PerCTA table entry (``register`` or ``advance``)."""
        self._instant(pid=sm_id, tid=CONTROL_LANE, name=f"percta_{kind}",
                      cat="table", ts=now, args={"cta": cta_id, "pc": pc})

    # ------------------------------------------------------------ finalize
    def finalize(self, gpu, now: int) -> None:
        """Close any spans still open when the run ended."""
        for uid, since in list(self._stall_since.items()):
            warp = None
            for sm in gpu.sms:
                warp = sm.warps_by_uid.get(uid)
                if warp is not None:
                    break
            if warp is not None:
                self._stall(warp, since, now)
        self._stall_since.clear()
        self._pf_open.clear()

    # -------------------------------------------------------------- export
    def to_chrome_trace(self, num_sms: Optional[int] = None) -> Dict[str, Any]:
        """Render the Chrome trace-event JSON object.

        Includes process/thread name metadata so Perfetto labels each SM
        and its prefetch/control lanes.  ``metadata.dropped_events``
        reports events discarded by the recorder's cap.
        """
        meta: List[Dict[str, Any]] = []
        sms = sorted({e["pid"] for e in self.events})
        if num_sms is not None:
            sms = sorted(set(sms) | set(range(num_sms)))
        for sm in sms:
            meta.append({"ph": "M", "pid": sm, "tid": 0,
                         "name": "process_name",
                         "args": {"name": f"SM {sm}"}})
            meta.append({"ph": "M", "pid": sm, "tid": PREFETCH_LANE,
                         "name": "thread_name",
                         "args": {"name": "prefetch"}})
            meta.append({"ph": "M", "pid": sm, "tid": CONTROL_LANE,
                         "name": "thread_name",
                         "args": {"name": "control"}})
        return {
            "traceEvents": meta + self.events,
            "displayTimeUnit": "ms",
            "metadata": {
                "cycle_unit": "1 trace us == 1 simulated cycle",
                "dropped_events": self.dropped,
            },
        }

    def write(self, path, num_sms: Optional[int] = None) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(num_sms), fh)


def validate_chrome_trace(payload: Dict[str, Any]) -> List[str]:
    """Structural check of a Chrome trace object; returns problem list.

    Used by the test suite (and handy in CI) to guard the export schema:
    every event needs ``ph``/``pid``/``tid``/``name``, spans need
    non-negative ``ts``/``dur``, instants need ``ts``.  An empty list
    means the trace is well-formed.
    """
    problems: List[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "b", "e"):
            problems.append(f"event {i}: unknown ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"event {i}: missing int {key}")
        if not isinstance(ev.get("name"), str):
            problems.append(f"event {i}: missing name")
        if ph == "X":
            if not isinstance(ev.get("ts"), int) or ev["ts"] < 0:
                problems.append(f"event {i}: bad ts")
            if not isinstance(ev.get("dur"), int) or ev["dur"] < 0:
                problems.append(f"event {i}: bad dur")
        elif ph == "i":
            if not isinstance(ev.get("ts"), int) or ev["ts"] < 0:
                problems.append(f"event {i}: bad ts")
    return problems
