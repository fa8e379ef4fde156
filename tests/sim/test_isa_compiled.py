"""The compiled program against the tree it was compiled from.

``sim/isa.py`` flattens each :class:`WarpProgram` once and steps it with
an index and a few counters.  The reference here is the tree interpreter
it replaced, kept in the test only: every stream, every ``consume_alu``
split and the closed-form counters must agree with it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.isa import (
    ALU, EXIT, AddressContext, ComputeOp, InstrKind, LoadOp, LoadSite, LoopOp,
    StoreOp, WarpProgram, strided_pattern,
)
from repro.sim.kernel import KernelInfo
from repro.sim.multi.app import PC_STRIDE, virtualize_kernel
from repro.sim.sm import KERNEL_ADDR_SHIFT


def reference_stream(ops, base=0):
    """One ``(kind, pc, latency, site, iteration, use_distance)`` per
    dynamic instruction, by walking the op tree (sites' PCs as assigned)."""
    iters = {}

    def walk(ops, pc):
        for op in ops:
            if isinstance(op, ComputeOp):
                for i in range(op.count):
                    yield (InstrKind.ALU, pc + 4 * i, op.latency, None, 0, 0)
                pc += 4 * op.count
            elif isinstance(op, LoopOp):
                for _ in range(op.trips):
                    end = yield from walk(op.body, pc + 4)
                pc = end + 4
            else:
                it = iters.get(op.site.pc, 0)
                iters[op.site.pc] = it + 1
                load = isinstance(op, LoadOp)
                yield (InstrKind.LOAD if load else InstrKind.STORE, op.site.pc,
                       1, op.site, it, op.use_distance if load else 0)
                pc += 4
        return pc

    yield from walk(ops, base)
    yield (InstrKind.EXIT, -1, 1, None, 0, 0)


def fields(instr):
    return (instr.kind, instr.pc, instr.latency, instr.site, instr.iteration,
            instr.use_distance)


def stream_of(prog):
    c = prog.cursor()
    out = []
    while not c.done:
        out.append(fields(c.next_instr()))
    return out


def state(c):
    return (c.ip, c.kind, c.run, c.lat, list(c.loops), list(c.iters), c.done)


def clone(c, prog):
    twin = prog.cursor()
    twin.ip, twin.kind, twin.run, twin.lat, twin.done = (
        c.ip, c.kind, c.run, c.lat, c.done)
    twin.loops[:] = c.loops
    twin.iters[:] = c.iters
    return twin


# A spec is plain data; build() turns it into fresh ops, because
# constructing a WarpProgram writes PCs into its sites.
@st.composite
def specs(draw, depth=0):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ("alu", "alu", "load", "store") + (("loop",) if depth < 3 else ())))
        if kind == "alu":
            out.append(("alu", draw(st.integers(1, 4)), draw(st.integers(1, 9))))
        elif kind == "load":
            out.append(("load", draw(st.integers(0, 2)), draw(st.integers(0, 3))))
        elif kind == "store":
            out.append(("store", draw(st.integers(0, 2))))
        else:
            body = draw(st.one_of(
                st.just([("load", draw(st.integers(0, 2)), 0)]),
                specs(depth + 1)))
            out.append(("loop", draw(st.integers(1, 3)), body))
    return out


#: Three sites a program draws from (so one site serves several ops);
#: 0 is "assign me a PC", and two explicit PCs may coincide.
site_pcs = st.lists(st.sampled_from((0, 0, 0x4000, 0x4100)),
                    min_size=3, max_size=3)


def build(spec, pcs):
    sites = [LoadSite(pc=pc, pattern=strided_pattern(0x1000 * (i + 1), 128))
             for i, pc in enumerate(pcs)]

    def ops(spec):
        for item in spec:
            if item[0] == "alu":
                yield ComputeOp(item[1], latency=item[2])
            elif item[0] == "load":
                yield LoadOp(sites[item[1]], use_distance=item[2])
            elif item[0] == "store":
                yield StoreOp(sites[item[1]])
            else:
                yield LoopOp(item[1], list(ops(item[2])))

    return WarpProgram(ops=list(ops(spec)))


class TestAgainstTree:
    @given(specs(), site_pcs)
    @settings(max_examples=150, deadline=None)
    def test_stream_matches_reference(self, spec, pcs):
        prog = build(spec, pcs)
        c = prog.cursor()
        for expected in reference_stream(prog.ops):
            assert not c.done
            assert fields(c.peek()) == expected
            assert fields(c.next_instr()) == expected
        assert c.done and c.kind == EXIT

    @given(specs(), site_pcs)
    @settings(max_examples=100, deadline=None)
    def test_consume_alu_is_repeated_next_instr(self, spec, pcs):
        """At every ALU instruction, for every ``k`` up to the run left."""
        prog = build(spec, pcs)
        c = prog.cursor()
        while not c.done:
            if c.kind == ALU:
                for k in range(1, c.run + 1):
                    bulk, single = clone(c, prog), clone(c, prog)
                    bulk.consume_alu(k)
                    for _ in range(k):
                        assert single.next_instr().kind is InstrKind.ALU
                    assert state(bulk) == state(single)
            c.next_instr()

    @given(specs(), site_pcs)
    @settings(max_examples=100, deadline=None)
    def test_counters_are_the_streams(self, spec, pcs):
        prog = build(spec, pcs)
        stream = list(reference_stream(prog.ops))
        assert prog.dynamic_instruction_count() == len(stream) - 1
        loads = [s for k, _, _, s, _, _ in stream if k is InstrKind.LOAD]
        assert {id(s) for s in prog.load_sites()} == {id(s) for s in loads}
        # The closed form equals stepping a cursor to the end (Fig. 4).
        c = prog.cursor()
        while not c.done:
            c.next_instr()
        assert prog.site_executions() == [
            c.site_iteration(s) for s in prog.load_sites()]


class TestSharing:
    def test_cursors_share_the_compiled_program_only(self):
        s = LoadSite(pc=0, pattern=strided_pattern(0x1000, 128))
        prog = WarpProgram(ops=[LoopOp(2, [ComputeOp(2), LoadOp(s)])])
        c1, c2 = prog.cursor(), prog.cursor()
        assert c1.code is c2.code is prog._code
        assert c1.loops is not c2.loops and c1.iters is not c2.iters
        before = state(c2)
        while not c1.done:
            c1.next_instr()
        assert state(c2) == before
        assert c1.site_iteration(s) == 2 and c2.site_iteration(s) == 0

    def test_loop_as_last_op_then_exit(self):
        prog = WarpProgram(ops=[ComputeOp(1), LoopOp(1, [ComputeOp(1)])])
        c = prog.cursor()
        kinds = [c.next_instr().kind for _ in range(3)]
        assert kinds == [InstrKind.ALU, InstrKind.ALU, InstrKind.EXIT]


class TestRebase:
    def test_virtualize_after_a_cursor_was_taken(self):
        """The compiled form bakes in PCs; a rebase must not leave the
        one an earlier ``cursor()`` saw in place."""
        a = LoadSite(pc=0, pattern=strided_pattern(0x1000, 128))
        b = LoadSite(pc=0x4000, pattern=strided_pattern(0x9000, 128))
        prog = WarpProgram(ops=[
            ComputeOp(2), LoopOp(2, [LoadOp(a), ComputeOp(1), StoreOp(b)])])
        before = stream_of(prog)  # takes a cursor before the rebase
        kernel = KernelInfo(name="k", num_ctas=1, warps_per_cta=1,
                            program=prog)
        virtualize_kernel(kernel, 1)
        after = stream_of(prog)
        assert after == list(reference_stream(prog.ops, base=PC_STRIDE))
        assert [(f[0], f[1]) for f in after[:-1]] == [
            (f[0], f[1] + PC_STRIDE) for f in before[:-1]]
        assert b.pc == 0x4000 + PC_STRIDE
        ctx = AddressContext(cta_id=0, warp_in_cta=0, iteration=0,
                             warps_per_cta=1, num_ctas=1)
        assert a.addresses(ctx) == (0x1000 + (1 << KERNEL_ADDR_SHIFT),)
