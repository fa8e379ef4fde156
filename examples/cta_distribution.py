#!/usr/bin/env python
"""Reproduce the paper's Figure 3: CTA distribution across SMs.

Shows (a) the distributor on the paper's exact example — 12 CTAs,
3 SMs, 2 concurrent CTAs each — and (b) the same effect emerging from a
real simulation: the CTA ids an SM actually executes are not
consecutive, which is why inter-CTA strides inside an SM are
unpredictable and per-CTA base-address discovery is necessary.

Run:  python examples/cta_distribution.py
"""

import dataclasses

from repro import GPU, KernelInfo, small_config
from repro.sim.cta import CTADistributor
from repro.sim.isa import ComputeOp, WarpProgram
from repro.workloads import Scale, build


def ctas_seen_by(dist: CTADistributor, sm: int):
    """All CTA ids ever assigned to SM ``sm``, in issue order."""
    return [a.cta_id for a in dist.history if a.sm_id == sm]


def abstract_example() -> None:
    print("Figure 3 example: 12 CTAs, 3 SMs, 2 concurrent CTAs per SM")
    kernel = KernelInfo("fig3", 12, 1, WarpProgram(ops=[ComputeOp(1)]))
    config = dataclasses.replace(small_config(), num_sms=3,
                                 max_ctas_per_sm=2)
    dist = CTADistributor([kernel], config)
    for sm, _, cta in dist.initial_fill():
        print(f"  launch: CTA {cta:2d} -> SM {sm} (round-robin)")
    # CTA 5 (on SM 2) finishes first, then CTA 3 (on SM 0), as in the
    # paper's figure; the remaining CTAs are demand-driven.
    finish_order = [2, 0, 1, 2, 0, 1]
    for now, sm in enumerate(finish_order, start=1):
        for _, cta in dist.on_cta_finish(sm, 0, duration=now, now=now):
            print(f"  SM {sm} finished a CTA -> gets CTA {cta}")
    for sm in range(3):
        print(f"  SM {sm} executed CTAs {ctas_seen_by(dist, sm)}")


def simulated_example() -> None:
    print("\nSame effect in a full simulation (LPS, 64 CTAs, 4 SMs):")
    gpu = GPU([build("LPS", Scale.SMALL)], small_config())
    gpu.run()
    for sm in range(gpu.config.num_sms):
        seen = ctas_seen_by(gpu.distributor, sm)
        diffs = sorted({b - a for a, b in zip(seen, seen[1:])})
        print(f"  SM {sm}: CTAs {seen[:10]}... id deltas {diffs[:6]}")
    print("  -> consecutive CTAs rarely share an SM; the inter-CTA")
    print("     'stride' an SM observes is irregular (Section IV).")


if __name__ == "__main__":
    abstract_example()
    simulated_example()
