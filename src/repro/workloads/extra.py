"""Extra workload models outside the Table IV suite.

Currently: the paper's Section I motivation example.  The introduction
measures *nearest neighbor* (CUDA SDK) spending 62% of its execution
cycles with the pipeline stalled because every warp is waiting on L1 —
the observation that motivates the whole paper.  ``build_nn`` models it:
a register-hungry kernel (occupancy-limited to two CTAs per SM) issuing
a cluster of point-coordinate loads with almost no arithmetic, so the
few resident warps run out of latency tolerance together.
"""

from __future__ import annotations

from repro.config import CTAResources
from repro.sim.isa import ComputeOp, LoadOp, LoadSite, StoreOp, WarpProgram
from repro.sim.kernel import KernelInfo
from repro.workloads.base import Scale, SCALE_CTAS
from repro.workloads.generators import RegionAllocator, linear

LINE = 128


def build_nn(scale: Scale = Scale.SMALL) -> KernelInfo:
    """Nearest neighbor (CUDA SDK) — the Section I motivation kernel."""
    n = SCALE_CTAS[scale]
    alloc = RegionAllocator()
    ops = [ComputeOp(6)]
    for i in range(6):
        site = LoadSite(
            pc=0,
            pattern=linear(alloc.alloc(f"coord{i}"), warp_stride=LINE),
            name=f"coord{i}",
        )
        ops += [LoadOp(site), ComputeOp(3)]
    out = LoadSite(pc=0, pattern=linear(alloc.alloc("dist"), warp_stride=LINE),
                   name="dist")
    ops += [ComputeOp(16), StoreOp(out)]
    return KernelInfo(
        "NN",
        n,
        4,
        WarpProgram(ops=ops, name="nn"),
        # Register pressure caps occupancy at two CTAs per SM: only
        # eight warps of latency tolerance.
        resources=CTAResources(threads=128, registers_per_thread=128),
    )


#: Kernels a :class:`repro.exec.RunKey` may name beyond the Table IV
#: suite.  Only the analysis layer names them; ``repro run`` and the
#: serve protocol accept suite benchmarks alone.
KERNELS = {"NN": build_nn}
