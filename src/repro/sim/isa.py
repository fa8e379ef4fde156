"""Warp instruction-stream model.

A kernel supplies each warp with a :class:`WarpProgram` — a small tree of
ops (straight-line compute, loads, stores, and counted loops), compiled
once per kernel into the flat :class:`CompiledProgram` every warp
shares.  The SM steps it through a :class:`WarpCursor` — an index, the
ALU run left and a few loop counters — one instruction per issue slot,
mirroring how GPGPU-Sim replays a warp's dynamic instruction stream;
:class:`Instr` is the public view of one such instruction.

Loads reference a :class:`LoadSite` (one static load instruction,
identified by PC).  The site owns an *address pattern* — a callable that
maps an :class:`AddressContext` (kernel, CTA id, warp-within-CTA, dynamic
execution count of the site) to the byte addresses touched by the warp's
32 lanes after coalescing.  This is the load-address function Θ(CTA) +
tid·C3 of the paper's Section IV, made explicit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class InstrKind(enum.Enum):
    ALU = "alu"
    LOAD = "load"
    STORE = "store"
    EXIT = "exit"


@dataclass(frozen=True)
class AddressContext:
    """Everything an address pattern may depend on.

    ``iteration`` counts dynamic executions of the load site by this warp
    (0 for the first execution), which is what intra-warp stride
    prefetchers key on.  ``cta_id`` is the linear CTA index in the grid;
    ``warp_in_cta`` the warp's position inside its CTA.
    """

    cta_id: int
    warp_in_cta: int
    iteration: int
    warps_per_cta: int
    num_ctas: int


AddressFn = Callable[[AddressContext], Sequence[int]]


@dataclass
class LoadSite:
    """A static global-load instruction.

    ``pattern`` returns the per-warp byte addresses (one per coalesced
    memory request, at most 32).  ``indirect`` marks data-dependent
    addressing (graph edges, hash probes); the paper's CAP excludes such
    loads from prefetching via backward source-register tracing, which we
    substitute with this static flag.
    """

    pc: int
    pattern: AddressFn
    indirect: bool = False
    name: str = ""

    def addresses(self, ctx: AddressContext) -> Tuple[int, ...]:
        addrs = tuple(int(a) for a in self.pattern(ctx))
        if not addrs:
            raise ValueError(f"load site pc={self.pc:#x} produced no addresses")
        if len(addrs) > 32:
            raise ValueError(
                f"load site pc={self.pc:#x} produced {len(addrs)} requests; "
                "a warp can issue at most 32"
            )
        for a in addrs:
            if a < 0:
                raise ValueError(f"negative address {a} from pc={self.pc:#x}")
        return addrs


class Op:
    """Base class for program ops (see subclasses)."""

    __slots__ = ()


@dataclass
class ComputeOp(Op):
    """``count`` back-to-back dependent ALU instructions.

    Each instruction occupies one issue slot and makes the warp ready
    again ``latency`` cycles later (result forwarding between dependent
    ALU ops).
    """

    count: int
    latency: int = 4

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("ComputeOp.count must be >= 1")
        if self.latency < 1:
            raise ValueError("ComputeOp.latency must be >= 1")


@dataclass
class LoadOp(Op):
    """A global load; the warp blocks until data returns.

    ``use_distance`` models independent instructions between the load and
    its first use: the warp may continue issuing that many subsequent
    instructions before stalling on the outstanding load.  The common GPU
    case (load feeding the next instruction) is distance 0.
    """

    site: LoadSite
    use_distance: int = 0


@dataclass
class StoreOp(Op):
    """A global store — fire-and-forget traffic, never blocks the warp."""

    site: LoadSite


@dataclass
class LoopOp(Op):
    """A counted loop around a body of ops."""

    trips: int
    body: List[Op]

    def __post_init__(self) -> None:
        if self.trips < 1:
            raise ValueError("LoopOp.trips must be >= 1")
        if not self.body:
            raise ValueError("LoopOp.body must not be empty")


@dataclass(frozen=True)
class Instr:
    """One dynamic instruction as seen by the SM issue stage."""

    kind: InstrKind
    pc: int
    latency: int = 1
    site: Optional[LoadSite] = None
    iteration: int = 0
    use_distance: int = 0


#: ``WarpCursor.kind`` / ``CompiledProgram.kind`` values.  Small ints so
#: the issue stage compares instead of calling; ``kind >= LOAD`` is
#: "wants the LSU".  ``KINDS[kind]`` is the public :class:`InstrKind`.
ALU, EXIT, LOAD, STORE = 0, 1, 2, 3
KINDS = (InstrKind.ALU, InstrKind.EXIT, InstrKind.LOAD, InstrKind.STORE)
_LOOP_END = -1  # back-edge entry; a cursor never parks on one


class CompiledProgram:
    """A :class:`WarpProgram` flattened into parallel lists, one entry
    per ``ComputeOp`` run, load, store and loop end, closed by one EXIT.

    Loops stay back-edges (nothing is unrolled): a loop's end entry
    holds the index of its body's first entry (``target``), its
    ``trips`` and its nesting ``depth``.  ``run`` is the instructions an
    entry issues each time it is reached (the ALU run length, 1 for a
    load / store, 0 otherwise) and ``execs`` how often one warp reaches
    it (product of the enclosing trips).  ``site_idx`` numbers the
    distinct site PCs, so a cursor counts per-site executions in a list.
    """

    __slots__ = ("kind", "run", "lat", "pc", "site", "use_distance",
                 "target", "trips", "depth", "execs", "site_idx",
                 "site_index", "max_depth")

    def __init__(self, rows: List[tuple]):
        (self.kind, self.run, self.lat, self.pc, self.site,
         self.use_distance, self.target, self.trips, self.depth,
         self.execs) = (list(col) for col in zip(*rows))
        self.max_depth = max((d + 1 for k, d in zip(self.kind, self.depth)
                              if k == _LOOP_END), default=0)
        # Site PCs are final only after the whole walk (a shared site
        # takes the PC of its last auto-assigned slot), so resolve them
        # here rather than per row.
        self.site_index: Dict[int, int] = {}
        self.site_idx = [0] * len(rows)
        for ip, site in enumerate(self.site):
            if site is not None:
                self.pc[ip] = site.pc
                self.site_idx[ip] = self.site_index.setdefault(
                    site.pc, len(self.site_index))


@dataclass
class WarpProgram:
    """A warp's static program, compiled once per kernel.

    Construction assigns every op a stable PC (4 bytes per instruction
    slot) and flattens the tree into a :class:`CompiledProgram` in the
    same walk; every cursor of the program shares that object.
    """

    ops: List[Op]
    name: str = ""

    def __post_init__(self) -> None:
        self._pc_base = 0
        self._compile()

    def _compile(self) -> None:
        """The one walk over the op tree: PCs and the flat form."""
        rows: List[tuple] = []  # CompiledProgram's columns, in order

        def walk(ops: Sequence[Op], pc: int, depth: int, execs: int) -> int:
            for op in ops:
                if isinstance(op, ComputeOp):
                    rows.append((ALU, op.count, op.latency, pc, None, 0,
                                 0, 0, 0, execs))
                    pc += 4 * op.count
                elif isinstance(op, LoopOp):
                    start = len(rows)
                    pc = walk(op.body, pc + 4, depth + 1, execs * op.trips)
                    rows.append((_LOOP_END, 0, 0, pc, None, 0,
                                 start, op.trips, depth, 0))
                    pc += 4
                elif isinstance(op, (LoadOp, StoreOp)):
                    if op.site.pc == 0:
                        op.site.pc = pc
                    load = isinstance(op, LoadOp)
                    rows.append((LOAD if load else STORE, 1, 1, pc, op.site,
                                 op.use_distance if load else 0,
                                 0, 0, 0, execs))
                    pc += 4
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown op {op!r}")
            return pc

        end_pc = walk(self.ops, self._pc_base, 0, 1)
        rows.append((EXIT, 0, 1, end_pc, None, 0, 0, 0, 0, 1))
        self._code = CompiledProgram(rows)

    def rebase(self, pc_offset: int) -> None:
        """Shift every PC, the sites' included, by ``pc_offset`` and
        recompile; cursors taken before keep the old form
        (:func:`repro.sim.multi.virtualize_kernel`)."""
        for site in self.sites():
            site.pc += pc_offset
        self._pc_base += pc_offset
        self._compile()

    def sites(self) -> List[LoadSite]:
        """Every distinct load / store site object, in program order."""
        return list({id(s): s for s in self._code.site if s is not None}
                    .values())

    def load_sites(self) -> List[LoadSite]:
        """All static load sites, in program order."""
        code = self._code
        return [s for k, s in zip(code.kind, code.site) if k == LOAD]

    def static_instruction_count(self) -> int:
        """Static instruction slots (compute runs expanded)."""
        code = self._code
        return sum(code.run) + 2 * code.kind.count(_LOOP_END)

    def dynamic_instruction_count(self) -> int:
        """Dynamic instructions one warp executes (loops unrolled)."""
        code = self._code
        return sum(map(mul, code.run, code.execs))

    def site_executions(self) -> List[int]:
        """Per :meth:`load_sites` entry, how often one warp executes that
        site PC (loads and stores sharing it counted together) — closed
        form, no cursor stepped."""
        code = self._code
        total = [0] * len(code.site_index)
        for site, i, n in zip(code.site, code.site_idx, code.execs):
            if site is not None:
                total[i] += n
        return [total[i] for k, i in zip(code.kind, code.site_idx)
                if k == LOAD]

    def cursor(self) -> "WarpCursor":
        return WarpCursor(self)


_EXIT = Instr(kind=InstrKind.EXIT, pc=-1)


class WarpCursor:
    """One warp's position in its program's :class:`CompiledProgram`.

    Always parked on a real instruction (never a loop end), whose
    ``kind`` (``ALU`` / ``EXIT`` / ``LOAD`` / ``STORE``), remaining ALU
    ``run`` and ``lat`` sit in slots the issue stage reads directly.
    ``loops`` counts completed trips per nesting depth and ``iters``
    dynamic executions per site, which is what address patterns and
    intra-warp stride prefetchers see as the iteration index.
    :meth:`peek` / :meth:`next_instr` are the :class:`Instr` view of the
    same state; the simulator's hot paths use :meth:`consume_alu` and
    :meth:`take_mem`.
    """

    __slots__ = ("code", "ip", "kind", "run", "lat", "loops", "iters", "done")

    def __init__(self, program: WarpProgram):
        code = self.code = program._code
        self.loops = [0] * code.max_depth
        self.iters = [0] * len(code.site_index)
        self.done = False
        self._park(0)

    def _park(self, ip: int) -> None:
        """Park on the first instruction at or after entry ``ip``,
        following (or falling out of) any loop ends on the way."""
        code = self.code
        kinds = code.kind
        while kinds[ip] < 0:
            loops = self.loops
            d = code.depth[ip]
            n = loops[d] + 1
            if n < code.trips[ip]:
                loops[d] = n
                ip = code.target[ip]
            else:
                loops[d] = 0
                ip += 1
        self.ip = ip
        self.kind = kinds[ip]
        self.run = code.run[ip]
        self.lat = code.lat[ip]

    def site_iteration(self, site: LoadSite) -> int:
        """Dynamic executions of ``site`` so far by this warp."""
        i = self.code.site_index.get(site.pc)
        return 0 if i is None else self.iters[i]

    def peek(self) -> Instr:
        """Look at the next dynamic instruction without consuming it."""
        if self.done:
            raise RuntimeError("cursor already exhausted")
        code = self.code
        ip = self.ip
        kind = self.kind
        if kind == ALU:
            return Instr(kind=InstrKind.ALU, latency=self.lat,
                         pc=code.pc[ip] + 4 * (code.run[ip] - self.run))
        if kind == EXIT:
            return _EXIT
        return Instr(kind=KINDS[kind], pc=code.pc[ip], site=code.site[ip],
                     iteration=self.iters[code.site_idx[ip]],
                     use_distance=code.use_distance[ip])

    def next_instr(self) -> Instr:
        """Consume and return the next dynamic instruction.

        Returns an EXIT instruction exactly once when the program ends;
        calling again afterwards raises ``RuntimeError``.
        """
        instr = self.peek()
        if self.kind == ALU:
            self.consume_alu(1)
        elif self.kind == EXIT:
            self.done = True
        else:
            self.take_mem()
        return instr

    def consume_alu(self, count: int) -> None:
        """Consume ``count`` instructions of the ALU run the cursor is
        parked on (the caller guarantees ``count <= run``); when the run
        ends, move on to the next instruction, loop ends included."""
        run = self.run - count
        if run:
            self.run = run
        else:
            self._park(self.ip + 1)

    def take_mem(self) -> Tuple[LoadSite, int, int]:
        """Consume the load / store the cursor is parked on; returns its
        ``(site, iteration, use_distance)``."""
        code = self.code
        ip = self.ip
        iters = self.iters
        i = code.site_idx[ip]
        iteration = iters[i]
        iters[i] = iteration + 1
        self._park(ip + 1)
        return code.site[ip], iteration, code.use_distance[ip]


def strided_pattern(
    base: int,
    warp_stride: int,
    *,
    lines_per_access: int = 1,
    line_bytes: int = 128,
    iter_stride: int = 0,
    cta_base_fn: Optional[Callable[[int], int]] = None,
) -> AddressFn:
    """The canonical GPU address function of Section IV.

    ``addr = Θ(CTA) + warp_in_cta · warp_stride + iteration · iter_stride``
    with ``lines_per_access`` consecutive cache-line requests per warp
    (the coalescer output for 4/8/16-byte elements).  When ``cta_base_fn``
    is given it supplies Θ(CTA); otherwise CTAs are laid out contiguously
    (Θ = base + cta · warps_per_cta · warp_stride).
    """

    def fn(ctx: AddressContext) -> Tuple[int, ...]:
        if cta_base_fn is not None:
            theta = base + cta_base_fn(ctx.cta_id)
        else:
            theta = base + ctx.cta_id * ctx.warps_per_cta * warp_stride
        start = theta + ctx.warp_in_cta * warp_stride + ctx.iteration * iter_stride
        return tuple(start + i * line_bytes for i in range(lines_per_access))

    return fn
