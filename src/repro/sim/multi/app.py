"""A launch's kernels: kernel virtualization + the launch model.

A :class:`MultiKernelApp` holds the N kernels that share one GPU *at
the same time* (N is 1 for a single-kernel run).  Because the
simulator's per-kernel state is keyed by static pcs (prefetcher
PerCTA/Dist tables) and byte addresses (L1 tags, MSHRs, DRAM rows),
co-resident kernels must never alias each other:
:func:`virtualize_kernel` rebases kernel ``k``'s program pcs by
``k * PC_STRIDE`` and its address space by ``k << KERNEL_ADDR_SHIFT``,
making every pc- or address-keyed table kernel-disjoint by construction
and letting any line address resolve its owning kernel with one shift.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.isa import AddressFn
from repro.sim.kernel import KernelInfo
from repro.sim.sm import KERNEL_ADDR_SHIFT

#: PC offset between co-resident kernels' programs.  Far larger than any
#: workload's static footprint (4 bytes/slot), far smaller than the
#: address-space stride.
PC_STRIDE = 1 << 20


def _offset_pattern(pattern: AddressFn, offset: int) -> AddressFn:
    def fn(ctx):
        return tuple(a + offset for a in pattern(ctx))

    return fn


def virtualize_kernel(kernel: KernelInfo, kernel_id: int) -> KernelInfo:
    """Rebase ``kernel`` into co-run slot ``kernel_id`` (in place).

    Kernel 0 keeps its native pcs and addresses — a single-kernel run is
    the identity transform, which is what keeps co-run code paths
    bit-compatible with the existing differential baselines.  Later
    kernels get every load/store site's pc shifted by ``PC_STRIDE`` and
    every generated address shifted into a disjoint range.  Only valid
    on freshly built kernels (workload builders return fresh programs
    per :func:`repro.workloads.build` call).
    """
    kernel.kernel_id = kernel_id
    if kernel_id == 0:
        return kernel
    pc_off = kernel_id * PC_STRIDE
    addr_off = kernel_id << KERNEL_ADDR_SHIFT
    prog = kernel.program
    for site in prog.sites():
        site.pattern = _offset_pattern(site.pattern, addr_off)
    # The compiled form bakes in absolute pcs, so this recompiles:
    # cursors must be taken after this point.
    prog.rebase(pc_off)
    return kernel


class MultiKernelApp:
    """The kernels of one launch, co-resident on one GPU.

    Exposes the ``name``/``num_ctas`` surface of a single
    :class:`KernelInfo` so result collection, watchdog snapshots and
    the end-of-run invariants treat a co-run as one combined launch.
    """

    def __init__(self, kernels: Sequence[KernelInfo]):
        if not kernels:
            raise ValueError("a launch needs at least one kernel")
        self.kernels: List[KernelInfo] = [
            virtualize_kernel(k, i) for i, k in enumerate(kernels)
        ]
        self.name = "+".join(k.name for k in self.kernels)
        self.num_ctas = sum(k.num_ctas for k in self.kernels)
