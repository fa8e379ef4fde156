"""The simulator main loop: one scaffold, two engine steps.

:func:`run_loop` is the only loop that advances a
:class:`repro.sim.gpu.GPU` and :func:`flush_memory` the only post-run
drain.  The scaffold owns everything that is not the machine itself —
the done probe, the ``limit`` cutoff, the clock, the boundary hooks
(obs window flush, per-cycle deep checks, watchdog) and the optional
phase timing (``obs.profile``) — and is parameterised by
``GPUConfig.engine``:

* ``"cycle"`` — the reference step: ``sm.cycle(now)`` for every SM,
  ``subsystem.cycle(now)``, ``now += 1``.  Every component advances
  every cycle; this is the oracle the differential suite
  (``tests/sim/test_differential_engines.py``) compares against.

* ``"event"`` — the default step.  Most cycles do nothing but accrue a
  stall counter: warps wait on memory, DRAM waits on its in-flight
  bursts, the interconnect pipes wait on their latency.  The event step
  skips those cycles in batches while staying *bit-identical* to the
  reference — every counter, series and snapshot is pinned across both
  steps.

Hooks, profiling and deep checks belong to the scaffold, so they never
change which step runs; spans charge their cycles through the same
``SM._charge_stall`` the per-cycle path calls with a count of one.
How the event step stays exact (docs/architecture.md has the
contract):

* **Next-event sources.**  :func:`_dispatch` opens an SM's next span
  from ``Scheduler.next_issue_cycle`` and the SM's own hit heap (every
  prefetch engine acts only inside hooks the SM calls on real events);
  the subsystem runs ``cycle_event`` when its cached ``_next_event``
  (recomputed there, pulled earlier by ``submit``) is ripe.  A DRAM
  channel's term is the earlier of its read head and its last write:
  an earlier write's completion calls nothing back.  All are
  conservative lower bounds: they may fire early (wasting a check) but
  never late (missing work).

* **Response horizon.**  An SM's state changes under its span only via
  a memory response *to that SM* (CTA launches land only on the SM
  whose CTA retired).  ``MemorySubsystem.due_heaps`` holds each SM's
  reads past their L2 lookup by due cycle (``c + hit + icnt`` for a hit
  at ``c``, ``done + hit + icnt`` once the entry's DRAM read issued);
  reads still upstream are due no earlier than ``now + response_lag``.
  A delivery in cycle ``c``'s subsystem phase is visible from ``c + 1``,
  so an SM's span is capped one cycle past the smaller.

* **Eager spans.**  SM issue spans accrue their counters up front and
  set ``sm._skip_until``; external events (responses, CTA launches)
  reset it, and because spans never outrun their SM's response horizon
  the accrued prefix never overlaps the re-dispatched suffix.

* **Lazy stall spans.**  Pure stall spans defer their accounting: the
  span records only its start (``sm._span_from``) and settles the
  elapsed stall cycles via :meth:`SM._settle_span` at the first
  subsequent touch point — re-dispatch (settle to ``now``), a memory
  response (settle to ``now + 1``, since the reference step charges the
  arrival cycle as stalled), or a hook/exit boundary (settle to
  ``now``).  This keeps a span interrupted mid-flight from ever having
  over-accrued.

* **Hard spans.**  An issue span whose pre-executed picks provably
  cannot be altered by a memory response — no replay in flight, the
  two-level ready queue full (a response can only append to the
  eligible pool), no eager wake-up (off, or none of the SM's prefetches
  in flight to fire it), no queued prefetch work — is marked
  ``_span_hard`` and allowed to run to the hook boundary instead of the
  response horizon; responses do not reset its ``_skip_until``.
  Lazy stall spans are never hard: a response settles them immediately.
  Co-run SMs take the same rule: an SM keeps no per-kernel counters,
  so which kernel owns a warp never changes what a span may batch.

* **Backpressure wedges.**  A component blocked by memory backpressure
  sleeps until the one event that can free it: an L2 partition whose
  head read finds the MSHR full, or its line's entry at the merge
  limit, until a fill on it (``_L2Partition.wedged_from``, settled
  lazily), an SM whose queues sit behind a full request pipe until
  ``cycle_event`` drains it — its span ends at ``sub._next_event + 1``
  and is never hard, and a replay facing a full queue is wedged.

* **Hook boundaries.**  Spans and clock jumps never cross the next
  hook boundary, so samples, window flushes, deep checks and hang
  checks fire at exactly the reference cycles with exactly the
  reference counter state.  This is also what anchors the watchdog to
  *simulated* cycles rather than loop iterations.

* **Issue automaton.**  For the two-level schedulers (``two_level``,
  ``pas``) runs of back-to-back ALU issues are replayed in local arrays
  mirroring the ready-queue rotation, with a closed-form jump over
  steady-state full rotations.  A span only *reads* each ready warp's
  cursor slots (``kind`` / ``run`` / ``lat`` — the same three
  ``TwoLevel.pick`` and ``SM._issue`` read) and advances a cursor only
  through :meth:`repro.sim.isa.WarpCursor.consume_alu`, in bulk, which
  itself moves past loop ends onto the next instruction.  The span
  stops before the first cycle that would pick a load/store/EXIT, which
  then runs through the reference ``SM.cycle`` path.
"""

from __future__ import annotations

import time

from repro.sim.isa import ALU, LOAD
from repro.sim.sched import TwoLevel

#: Sentinel "never" cycle shared by every next-event hook.
NEVER = 1 << 62
#: Simulated cycles :func:`flush_memory` may spend draining.
DRAIN_CAP = 100_000


def _next_hook(t: int, limit: int, intervals) -> int:
    """First cycle after ``t`` at which any periodic hook (obs window
    flush, deep check, watchdog check) fires, capped at ``limit``.
    Spans and clock jumps never cross this boundary."""
    nh = limit
    for interval in intervals:
        b = t - t % interval + interval
        if b < nh:
            nh = b
    return nh


def _replay_wedged(sm, rp) -> bool:
    """True when the replay head provably cannot make progress before a
    memory response or the request pipe draining (which the caller found
    full whenever a queue is non-empty) — the events that end its spans.

    Mirrors the replay-failure branches of ``SM._process_store_lines``
    and ``SM._process_demand_lines``."""
    if rp.is_store:
        return len(sm.store_queue) >= sm.store_queue_depth
    head = rp.remaining[0]
    if sm.l1.probe(head) is not None:
        return False
    meta = sm._inflight_prefetch.get(head)
    mshr = sm.l1.mshr
    if meta is not None:
        return len(meta.waiters) >= mshr.merge_limit
    if mshr.pending(head):
        return not mshr.can_merge(head)
    return (len(mshr._entries) >= mshr.capacity
            or len(sm.miss_queue) >= sm.miss_queue_depth)


def _issue_span(sm, now: int, end: int, stall_cap: int, lsu_busy: bool) -> int:
    """Batch-execute two-level issue cycles ``[now, t)``; returns ``t``.

    Replays the exact ready-queue rotation of ``TwoLevel.pick`` in local
    arrays, issuing ALU instructions and accruing stall cycles.  Stops
    (returning early) before the first cycle whose pick would be a
    load/store/EXIT — or, with ``lsu_busy`` (an active replay holds the
    LSU), before an EXIT pick, while load/store-next warps are skipped
    in the rotation exactly as ``Scheduler._can_issue`` does.  Returns
    ``now`` unchanged when nothing could be batched (the caller then
    runs the reference ``SM.cycle``).

    Contract: the caller reached this through
    ``sched.next_issue_cycle()`` in the same dispatch, which refilled
    the ready queue, and nothing has touched the scheduler since — the
    span does not refill again.

    ``stall_cap`` is the SM's response horizon: *stall* cycles beyond it
    could be misclassified by a response that changes the warp counts,
    so a stall needed at ``t >= stall_cap`` ends the span.  Issue cycles
    are response-independent under the hard-span preconditions (see
    ``_dispatch``) and may run to ``end`` past the cap."""
    sched = sm.scheduler
    ready = sched.ready
    n = len(ready)
    if n == 0:
        sm._charge_stall(end - now)
        return end
    # Fast prelude: resolve the pick at `now` without building the slot
    # arrays.  Most calls bail here — either the pick is a load/store
    # (per-cycle path) or nothing is pickable (pure stall span).
    ptr0 = sched._ptr % n
    first = -1
    for i in range(n):
        j = ptr0 + i
        if j >= n:
            j -= n
        w = ready[j]
        if w.ready_at > now:
            continue
        if lsu_busy and w.cursor.kind >= LOAD:
            continue  # wants the busy LSU: rotation skips it
        first = j
        break
    if first < 0:
        # Pure stall at `now`: jump to the earliest pickable ripen time
        # and let the next dispatch re-resolve from there.
        nxt = end if end < stall_cap else stall_cap
        for w in ready:
            rw = w.ready_at
            if rw <= now or rw >= nxt:
                continue
            if lsu_busy and w.cursor.kind >= LOAD:
                continue
            nxt = rw
        sm._charge_stall(nxt - now)
        return nxt
    if ready[first].cursor.kind != ALU:
        return now  # load/store/EXIT pick: reference SM.cycle runs it
    ra = [0] * n
    alu = [0] * n   # ALU run left on the slot's cursor, less `cnt`
    lat = [0] * n
    kind = [0] * n  # the slot cursor's kind (isa.ALU / EXIT / LOAD / STORE)
    cnt = [0] * n   # cursor consumes pending since the last flush
    tot = [0] * n   # total issues this span (stats writeback)
    for j in range(n):
        w = ready[j]
        if w.pending_pieces > 0:
            # A deferred warp (use_distance) charges its budget on every
            # issue and may block mid-run: per-cycle path only.
            return now
        ra[j] = w.ready_at
        c = w.cursor
        kind[j] = c.kind
        alu[j] = c.run
        lat[j] = c.lat

    t = now
    issued = 0
    stalls = 0
    ptr = sched._ptr % n
    p0 = ptr
    while t < end:
        pick = -1
        for i in range(n):
            j = ptr + i
            if j >= n:
                j -= n
            if ra[j] > t:
                continue
            if lsu_busy and kind[j] >= LOAD:
                continue  # wants the busy LSU: rotation skips it
            pick = j
            break
        if pick < 0:
            # Stall: jump to the earliest cycle a pickable slot ripens.
            # Stalls are classification-safe only below the response
            # horizon, so they never cross `stall_cap`.
            lim = end if end < stall_cap else stall_cap
            if t >= lim:
                break
            nxt = NEVER
            for j in range(n):
                if lsu_busy and kind[j] >= LOAD:
                    continue
                rj = ra[j]
                if rj > t and rj < nxt:
                    nxt = rj
            if nxt >= lim:
                stalls += lim - t
                t = lim
                break
            stalls += nxt - t
            t = nxt
            continue
        if kind[pick] != ALU:
            break  # load/store/EXIT pick: stop before this cycle
        alu[pick] -= 1
        cnt[pick] += 1
        tot[pick] += 1
        ra[pick] = t + lat[pick]
        issued += 1
        t += 1
        ptr = pick + 1
        if ptr >= n:
            ptr = 0
        if alu[pick] == 0:
            # Run over: the cursor moves itself on (loop ends included)
            # and the slot re-reads what it is parked on now.
            c = ready[pick].cursor
            c.consume_alu(cnt[pick])
            cnt[pick] = 0
            kind[pick] = c.kind
            alu[pick] = c.run
            lat[pick] = c.lat
        elif ptr == p0:
            # Steady state: ptr wrapped with ALU work left.  If every
            # slot is ALU-next, already ripe in rotation order, and its
            # result returns within one rotation (latency <= n), each
            # rotation issues one instruction per slot — jump whole
            # rotations in closed form.
            rot = (end - t) // n
            if rot >= 1:
                for i in range(n):
                    s = p0 + i
                    if s >= n:
                        s -= n
                    if kind[s] != ALU or lat[s] > n or ra[s] > t + i:
                        rot = 0
                        break
                    if alu[s] < rot:
                        rot = alu[s]
            if rot >= 1:
                for i in range(n):
                    s = p0 + i
                    if s >= n:
                        s -= n
                    alu[s] -= rot
                    cnt[s] += rot
                    tot[s] += rot
                    ra[s] = t + (rot - 1) * n + i + lat[s]
                issued += rot * n
                t += rot * n
                for s in range(n):
                    if alu[s] == 0:
                        c = ready[s].cursor
                        c.consume_alu(cnt[s])
                        cnt[s] = 0
                        kind[s] = c.kind
                        alu[s] = c.run
                        lat[s] = c.lat

    if stalls:
        sm._charge_stall(stalls)
    if issued:
        sched._ptr = ptr
        total = 0
        for j in range(n):
            if cnt[j]:
                ready[j].cursor.consume_alu(cnt[j])
            tj = tot[j]
            if tj:
                w = ready[j]
                w.instructions_issued += tj
                w.ready_at = ra[j]
                total += tj
        stats = sm.stats
        stats.instructions += total
        stats.issue_cycles += issued
        stats.active_cycles += issued
    return t


def _dispatch(sm, now: int, hook_at: int, sub) -> None:
    """Advance one SM from cycle ``now``: run the reference ``cycle``
    when per-cycle work is pending, otherwise open the longest provably
    safe span and record it in ``sm._skip_until``."""
    sm._span_hard = False
    if sm._span_from >= 0:
        sm._settle_span(now)
    # Queued misses, stores and prefetches drain only into the request
    # pipe; while it is full every submit fails (pulling no _next_event
    # earlier), so the queues are inert until cycle_event drains it.
    wake = NEVER
    if sm.miss_queue or sm.store_queue or sm.prefetch_miss_queue:
        rq = sub.request_pipe
        if len(rq._q) < rq.capacity:
            sm.cycle(now)
            return
        wake = sub._next_event + 1
    if sm.unfinished_warps == 0:
        sm._skip_until = wake
        return
    hh = sm._hit_heap
    if (hh and hh[0][0] <= now) or (
        sm.prefetch_queue
        and sm.unused_prefetched_resident < sm._prefetch_resident_limit
    ):
        sm.cycle(now)
        return
    rp = sm.replay
    if rp is not None and not _replay_wedged(sm, rp):
        sm.cycle(now)
        return
    # End bound for *lazy* spans: hooks, the pipe drain and the SM's own
    # future work (ripe hits, serviceable prefetches) — but not the
    # response horizon.
    lazy_end = hook_at if hook_at < wake else wake
    if hh and hh[0][0] < lazy_end:
        lazy_end = hh[0][0]
    nxt = sm.scheduler.next_issue_cycle()
    if nxt > now:
        # No warp can issue before `nxt` absent an external event: open
        # a lazy stall span with deferred accounting.  No response cap
        # is needed — an early response settles the shorter prefix
        # (SM._settle_span) before mutating any warp.
        if nxt < lazy_end:
            lazy_end = nxt
        if lazy_end <= now:
            sm.cycle(now)
            return
        sm._span_from = now
        sm._span_replay = rp is not None
        sm._skip_until = lazy_end
        return
    # Something is pickable this cycle.  Two-level schedulers batch ALU
    # issue runs eagerly under the response horizon; flat schedulers
    # (lrr/gto variants) run issue cycles through the reference path.
    sched = sm.scheduler
    if not isinstance(sched, TwoLevel):
        sm.cycle(now)
        return
    # Response horizon (module docstring): the SM's earliest due read,
    # or now + response_lag for one still upstream of L2, plus one.
    cap = now + sub.response_lag
    due = sub.due_heaps[sm.sm_id]
    if due and due[0] < cap:
        cap = due[0] if due[0] > now else now
    cap += 1
    # Hard (response-tolerant) span preconditions: with the ready queue
    # full, a response or launch can only append to the eligible pool
    # (_refill is a no-op), no eager wake-up can displace a ready warp
    # (off, or no prefetch of this SM in flight to fire it), and no
    # gated prefetch work can become serviceable.  In-span picks are
    # then provably response-independent and may run to the hook
    # boundary; only stalls stay under the response horizon.
    hard = (
        rp is None
        and wake == NEVER
        and (sm._hard_span_ok or not sm._inflight_prefetch)
        and not sm.prefetch_queue
        and len(sched.ready) == sched.ready_size
    )
    if hard:
        end = lazy_end
    else:
        end = lazy_end if lazy_end < cap else cap
    if end <= now:
        sm.cycle(now)
        return
    t = _issue_span(sm, now, end, cap, rp is not None)
    if t == now:
        sm.cycle(now)
        return
    if rp is not None:
        sm._charge_wedged_replay(t - now)
    sm._skip_until = t
    sm._span_hard = hard


def _settle(gpu, now: int) -> None:
    """Event step only: bring every lazily accounted counter (open
    stall spans, idle DRAM channels) up to ``now`` before anything
    outside the step reads it.  The cycle step keeps no such debt —
    ``DramChannel.cycle`` does not maintain ``_accounted_to``, so
    syncing there would count idle cycles twice."""
    for sm in gpu.sms:
        if sm._span_from >= 0:
            sm._settle_span(now)
    gpu.subsystem.sync_accounting(now)


def _timed(prof, phase: str, fn, *args) -> None:
    """Call ``fn(*args)``, crediting its wall time to ``phase`` when a
    profiler is attached."""
    if prof is None:
        fn(*args)
    else:
        with prof.phase(phase):
            fn(*args)


def run_loop(gpu, limit: int) -> None:
    """Advance ``gpu`` until every CTA retired or ``gpu.now == limit``.

    The single main loop (module docstring): ``gpu.config.engine``
    selects the step, everything else is shared.  The obs window flush,
    the per-cycle deep checks (an interval-1 hook) and the watchdog
    fire at their own multiples, all with bit-identical component state
    under either step."""
    sub = gpu.subsystem
    sms = gpu.sms
    obs = gpu.obs
    wd = gpu.watchdog
    event = gpu.config.engine == "event"
    obs_interval = obs.window_interval if obs is not None else 0
    deep = 1 if gpu.config.deep_checks else 0
    wd_interval = wd.check_interval if wd is not None else 0
    intervals = [i for i in (obs_interval, deep, wd_interval) if i]
    prof = obs.profiler if obs is not None else None
    perf = time.perf_counter
    start = now = gpu.now
    hook_at = _next_hook(now, limit, intervals)
    while now < limit:
        # Cheap done probe: unfinished_warps is a plain attribute, and
        # an SM with zero unfinished warps and an empty CTA slot is done
        # (gpu.done confirms before exiting).
        running = False
        for sm in sms:
            if sm.unfinished_warps:
                running = True
                break
        if not running and gpu.done:
            break
        # Components read the clock during the step (CTA launches,
        # response timestamps), so it must be live every iteration.
        gpu.now = now
        if prof is not None:
            t0 = perf()
        if event:
            min_wake = sub._next_event
            ran = False
            for sm in sms:
                su = sm._skip_until
                if su > now:
                    if su < min_wake:
                        min_wake = su
                else:
                    ran = True
                    _dispatch(sm, now, hook_at, sub)
            if prof is not None:
                t1 = perf()
            # Re-read: SM dispatches may have submitted requests and
            # pulled the subsystem's next event earlier (possibly to
            # `now` itself under a zero-latency interconnect).
            if sub._next_event <= now:
                sub.cycle_event(now)
                ran = True
            now += 1
            if not ran and min_wake > now:
                # Quiet iteration: every SM is inside a span and the
                # subsystem has no ripe work.  Jump to the next wake-up,
                # never crossing a hook boundary.
                tgt = min_wake if min_wake < hook_at else hook_at
                if tgt > now:
                    now = tgt
        else:
            for sm in sms:
                sm.cycle(now)
            if prof is not None:
                t1 = perf()
            sub.cycle(now)
            now += 1
        if prof is not None:
            prof.add("sm_cycle", t1 - t0)
            prof.add("mem_cycle", perf() - t1)
        if now >= hook_at:
            gpu.now = now
            if event:
                _settle(gpu, now)
            if obs_interval and now % obs_interval == 0:
                _timed(prof, "obs_flush", obs.flush, gpu, now)
            if deep:
                _timed(prof, "deep_checks", gpu.invariants.check_cycle,
                       gpu, now)
            if wd_interval and now % wd_interval == 0:
                wd.check(gpu, now)
            hook_at = _next_hook(now, limit, intervals)
    gpu.now = now
    if event:
        _settle(gpu, now)
    if prof is not None:
        # Record the simulated-cycle count so profile consumers can
        # derive host-seconds-per-cycle without the SimResult in hand.
        prof.add("cycles", 0.0, calls=now - start)


def flush_memory(gpu) -> None:
    """Drain in-flight stores/prefetches after the last warp retires so
    traffic counters balance.  Flush cycles are not charged to the
    kernel (completion time is the last warp's retirement).

    Same two steps as :func:`run_loop`; the event step skips the quiet
    gaps between subsystem events.  The drain cap counts *simulated*
    cycles, so neither step can trip or mask it for the other."""
    sub = gpu.subsystem
    event = gpu.config.engine == "event"
    t = gpu.now
    deadline = t + DRAIN_CAP
    while t < deadline:
        busy = False
        for sm in gpu.sms:
            if sm.miss_queue or sm.store_queue or sm.prefetch_miss_queue:
                sm._drain_miss_queue(t)
                busy = True
        if not event:
            sub.cycle(t)
        elif sub._next_event <= t:
            sub.cycle_event(t)
        t += 1
        if not busy:
            if sub.drained():
                break
            if event and sub._next_event > t:
                t = min(sub._next_event, deadline)
    if event:
        sub.sync_accounting(t)
