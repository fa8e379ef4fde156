"""CAP: the CTA-aware prefetch engine (paper Section V).

Operation per demand load (first execution per warp, non-indirect, at
most four coalesced transactions):

1. Look up the CTA slot's PerCTA table and the SM-global DIST table by
   PC.
2. **Verification** — if both base and stride are known, compute the
   predicted address for this warp and compare with the demand address;
   mismatches bump the DIST misprediction counter and eventually disable
   the PC (throttling for irregular strides).
3. **Registration** — a PC absent from the PerCTA table makes the
   current warp the CTA's *leading warp* for that load: its addresses
   become the CTA's base-address vector.  If the stride is already known
   (Figure 9b, case 2) prefetches are generated immediately for all the
   CTA's trailing warps.
4. **Stride detection** — a PC with a base but no stride computes the
   stride from (addr − base)/(warp − leading warp).  Inconsistent
   per-transaction strides invalidate the PerCTA entry (not a striding
   load).  A consistent stride is stored in DIST and (Figure 9a, case 1)
   prefetches fire for the trailing warps of *every* CTA whose base for
   this PC is registered.

Prefetches are bound to their target warp so PAS can wake it when the
data fills L1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import GPUConfig
from repro.core.dist import DistTable
from repro.core.percta import PerCTAEntry, PerCTATable
from repro.prefetch.base import Prefetcher, PrefetchCandidate


class _CtaContext:
    """Per-CTA-slot runtime info the generator needs."""

    __slots__ = ("cta_id", "warp_uids", "table")

    def __init__(self, cta_id: int, warp_uids: List[int], capacity: int):
        self.cta_id = cta_id
        self.warp_uids = warp_uids
        self.table = PerCTATable(capacity)


class CtaAwarePrefetcher(Prefetcher):
    """CAPS prefetch engine (pairs with the PAS scheduler)."""

    name = "caps"
    wants_leading_warps = True
    wants_eager_wakeup = True

    def __init__(self, config: GPUConfig, sm_id: int):
        super().__init__(config, sm_id)
        pcfg = config.prefetch
        self.dist = DistTable(pcfg.dist_entries, pcfg.mispredict_threshold)
        self.max_targets = pcfg.max_coalesced_targets
        self.window = pcfg.prefetch_window
        self._ctas: Dict[int, _CtaContext] = {}
        self._percta_capacity = pcfg.percta_entries
        self.line_bytes = config.l1d.line_bytes
        # engine-level stats
        self.loads_observed = 0
        self.loads_excluded_indirect = 0
        self.loads_excluded_uncoalesced = 0
        self.strides_detected = 0
        self.strides_rejected = 0

    # ------------------------------------------------------------- lifecycle
    def on_cta_launch(self, cta_slot, cta_id, warps) -> None:
        self._ctas[cta_slot] = _CtaContext(
            cta_id=cta_id,
            warp_uids=[w.uid for w in sorted(warps, key=lambda w: w.warp_in_cta)],
            capacity=self._percta_capacity,
        )

    def on_cta_finish(self, cta_slot, cta_id) -> None:
        self._ctas.pop(cta_slot, None)

    # ------------------------------------------------------------------ main
    def on_load_issue(self, warp, site, addresses, line_addrs, iteration, now):
        self.loads_observed += 1
        if site.indirect:
            # Backward source-register tracing (substituted by the static
            # flag) excludes data-dependent addresses from prefetching.
            self.loads_excluded_indirect += 1
            return []
        if len(addresses) > self.max_targets:
            self.loads_excluded_uncoalesced += 1
            return []
        ctx = self._ctas.get(warp.cta_slot)
        if ctx is None or ctx.cta_id != warp.cta_id:  # pragma: no cover
            return []
        pc = site.pc
        table = ctx.table
        entry = table.find(pc)
        dentry = self.dist.find(pc, now)
        cands: List[PrefetchCandidate] = []

        if (
            entry is not None
            and dentry is not None
            and not dentry.disabled
            and iteration == entry.iteration
        ):
            # Verification: every demand fetch recomputes its predicted
            # prefetch address and compares (Section V-B).  Only warps in
            # the same loop-iteration wave as the registered base verify.
            dw = warp.warp_in_cta - entry.leading_warp
            if dw != 0 and len(addresses) == len(entry.base_addrs):
                predicted = tuple(
                    b + dw * dentry.stride for b in entry.base_addrs
                )
                self.dist.verify(pc, predicted, addresses, now)

        if entry is None:
            # This warp becomes the CTA's leading warp for the PC.
            entry = table.register(pc, warp.warp_in_cta, tuple(addresses), now)
            entry.iteration = iteration
            if self.obs is not None:
                self.obs.percta_write(self.sm_id, ctx.cta_id, pc, "register", now)
            if dentry is not None and not dentry.disabled:
                # Case 2 (Fig. 9b): stride known before this CTA's base.
                cands.extend(
                    self._generate_for_cta(ctx, entry, dentry.stride)
                )
        elif (
            warp.warp_in_cta == entry.leading_warp
            and iteration > entry.iteration
        ):
            # The leading warp re-executed the load in a loop: the base
            # moves to the new iteration's address and the trailing warps
            # of the new wave become prefetch targets (the paper's claim
            # that CAPS covers loads "regardless of the number of
            # iterations" as long as the inter-warp stride is regular).
            entry.advance_iteration(tuple(addresses), iteration, now)
            if self.obs is not None:
                self.obs.percta_write(self.sm_id, ctx.cta_id, pc, "advance", now)
            if dentry is not None and not dentry.disabled:
                cands.extend(self._generate_for_cta(ctx, entry, dentry.stride))
        elif dentry is None and iteration == entry.iteration:
            entry.mark_issued(warp.warp_in_cta)
            dw = warp.warp_in_cta - entry.leading_warp
            if dw != 0:
                stride = self._compute_stride(entry, addresses, dw)
                if stride is None:
                    table.invalidate(pc)
                    self.strides_rejected += 1
                else:
                    self.dist.register(pc, stride, now)
                    self.strides_detected += 1
                    # Case 1 (Fig. 9a): bases already settled; prefetch
                    # the trailing warps of every registered CTA.
                    for octx in self._ctas.values():
                        oentry = octx.table.find(pc)
                        if oentry is not None:
                            cands.extend(
                                self._generate_for_cta(octx, oentry, stride)
                            )
        elif dentry is not None and not dentry.disabled:
            # Steady state: top up the prefetch-ahead window as trailing
            # warps consume it.  Mark this warp issued *first* so the
            # generator never targets the warp that is loading right now
            # and the window anchor is current.
            entry.mark_issued(warp.warp_in_cta)
            cands.extend(self._generate_for_cta(ctx, entry, dentry.stride))

        if entry is not None and entry.valid:
            entry.mark_issued(warp.warp_in_cta)
            table.touch(pc, now)
        return self._emit(cands)

    # --------------------------------------------------------------- helpers
    def _compute_stride(
        self, entry: PerCTAEntry, addresses: Sequence[int], dw: int
    ) -> Optional[int]:
        """Per-transaction deltas must agree and divide evenly by the
        warp distance; otherwise the PC is not a striding load."""
        if len(addresses) != len(entry.base_addrs):
            return None
        diffs = {
            addresses[i] - entry.base_addrs[i] for i in range(len(addresses))
        }
        if len(diffs) != 1:
            return None
        diff = diffs.pop()
        if diff == 0 or diff % dw != 0:
            return None
        return diff // dw

    def _generate_for_cta(
        self, ctx: _CtaContext, entry: PerCTAEntry, stride: int
    ) -> List[PrefetchCandidate]:
        """Prefetch the trailing warps of ``ctx``'s CTA for ``entry``,
        at most ``prefetch_window`` warps beyond the furthest warp that
        already issued the load (topped up on subsequent issues)."""
        cands: List[PrefetchCandidate] = []
        n_warps = len(ctx.warp_uids)
        limit = min(n_warps, entry.max_issued + 1 + self.window)
        lb = self.line_bytes
        for t in range(limit):
            if t == entry.leading_warp:
                continue
            if entry.was_issued(t) or entry.was_prefetched(t):
                continue
            entry.mark_prefetched(t)
            dw = t - entry.leading_warp
            target_uid = ctx.warp_uids[t]
            for b in entry.base_addrs:
                addr = b + dw * stride
                if addr < 0:
                    continue
                cands.append(
                    PrefetchCandidate(
                        line_addr=addr // lb * lb,
                        pc=entry.pc,
                        target_warp_uid=target_uid,
                    )
                )
        return cands
