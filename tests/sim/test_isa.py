"""Tests for the warp instruction-stream model (repro.sim.isa)."""

import pytest

from repro.sim.isa import (
    AddressContext,
    ComputeOp,
    InstrKind,
    LoadOp,
    LoadSite,
    LoopOp,
    StoreOp,
    WarpProgram,
    strided_pattern,
)


def ctx(cta=0, warp=0, iteration=0, wpc=4, ctas=8):
    return AddressContext(
        cta_id=cta, warp_in_cta=warp, iteration=iteration,
        warps_per_cta=wpc, num_ctas=ctas,
    )


def make_site(base=0x1000, stride=128, **kw):
    return LoadSite(pc=0, pattern=strided_pattern(base, warp_stride=stride, **kw))


class TestOps:
    def test_compute_rejects_zero_count(self):
        with pytest.raises(ValueError):
            ComputeOp(0)

    def test_compute_rejects_zero_latency(self):
        with pytest.raises(ValueError):
            ComputeOp(1, latency=0)

    def test_loop_rejects_zero_trips(self):
        with pytest.raises(ValueError):
            LoopOp(0, [ComputeOp(1)])

    def test_loop_rejects_empty_body(self):
        with pytest.raises(ValueError):
            LoopOp(2, [])


class TestLoadSite:
    def test_addresses_returns_ints(self):
        site = make_site()
        assert site.addresses(ctx()) == (0x1000,)

    def test_rejects_empty_address_list(self):
        site = LoadSite(pc=0, pattern=lambda c: [])
        with pytest.raises(ValueError):
            site.addresses(ctx())

    def test_rejects_more_than_32_requests(self):
        site = LoadSite(pc=0, pattern=lambda c: list(range(0, 33 * 128, 128)))
        with pytest.raises(ValueError):
            site.addresses(ctx())

    def test_rejects_negative_address(self):
        site = LoadSite(pc=0, pattern=lambda c: [-8])
        with pytest.raises(ValueError):
            site.addresses(ctx())


class TestPcAssignment:
    def test_sites_get_distinct_pcs(self):
        a, b = make_site(), make_site(0x2000)
        prog = WarpProgram(ops=[ComputeOp(2), LoadOp(a), LoadOp(b)])
        assert a.pc != b.pc
        assert a.pc > 0 and b.pc > 0

    def test_explicit_pc_preserved(self):
        s = LoadSite(pc=0x400, pattern=strided_pattern(0, warp_stride=128))
        WarpProgram(ops=[LoadOp(s)])
        assert s.pc == 0x400

    def test_loop_body_load_keeps_one_pc(self):
        s = make_site()
        prog = WarpProgram(ops=[LoopOp(3, [LoadOp(s)])])
        c = prog.cursor()
        pcs = {c.next_instr().pc for _ in range(3)}
        assert pcs == {s.pc}


class TestCounts:
    def test_dynamic_count_unrolls_loops(self):
        prog = WarpProgram(
            ops=[ComputeOp(2), LoopOp(3, [ComputeOp(1), LoadOp(make_site())])]
        )
        assert prog.dynamic_instruction_count() == 2 + 3 * 2

    def test_static_count(self):
        prog = WarpProgram(
            ops=[ComputeOp(2), LoopOp(3, [ComputeOp(1), LoadOp(make_site())])]
        )
        # 2 compute slots + loop overhead (2) + body (1 + 1)
        assert prog.static_instruction_count() == 2 + 2 + 2

    def test_load_sites_in_program_order(self):
        a, b, c = make_site(), make_site(0x2000), make_site(0x3000)
        prog = WarpProgram(
            ops=[LoadOp(a), LoopOp(2, [LoadOp(b)]), LoadOp(c)]
        )
        assert prog.load_sites() == [a, b, c]


class TestCursor:
    def test_straight_line_sequence(self):
        s = make_site()
        prog = WarpProgram(ops=[ComputeOp(2), LoadOp(s), StoreOp(make_site(0x9000))])
        c = prog.cursor()
        kinds = [c.next_instr().kind for _ in range(4)]
        assert kinds == [
            InstrKind.ALU, InstrKind.ALU, InstrKind.LOAD, InstrKind.STORE,
        ]
        assert c.next_instr().kind is InstrKind.EXIT
        assert c.done

    def test_exhausted_cursor_raises(self):
        prog = WarpProgram(ops=[ComputeOp(1)])
        c = prog.cursor()
        c.next_instr()
        c.next_instr()  # EXIT
        with pytest.raises(RuntimeError):
            c.next_instr()

    def test_loop_iteration_index_increments(self):
        s = make_site()
        prog = WarpProgram(ops=[LoopOp(4, [LoadOp(s)])])
        c = prog.cursor()
        iters = [c.next_instr().iteration for _ in range(4)]
        assert iters == [0, 1, 2, 3]

    def test_nested_loops(self):
        s = make_site()
        prog = WarpProgram(
            ops=[LoopOp(2, [ComputeOp(1), LoopOp(3, [LoadOp(s)])])]
        )
        c = prog.cursor()
        seq = []
        while not c.done:
            i = c.next_instr()
            if i.kind is not InstrKind.EXIT:
                seq.append(i.kind)
        assert seq.count(InstrKind.LOAD) == 6
        assert seq.count(InstrKind.ALU) == 2
        # load site executed 6 times total
        assert prog.dynamic_instruction_count() == len(seq)

    def test_peek_does_not_consume(self):
        prog = WarpProgram(ops=[ComputeOp(1), LoadOp(make_site())])
        c = prog.cursor()
        assert c.peek().kind is InstrKind.ALU
        assert c.peek().kind is InstrKind.ALU
        assert c.next_instr().kind is InstrKind.ALU
        assert c.peek().kind is InstrKind.LOAD
        assert c.next_instr().kind is InstrKind.LOAD

    def test_peek_load_then_consume_keeps_iteration(self):
        s = make_site()
        prog = WarpProgram(ops=[LoopOp(2, [LoadOp(s)])])
        c = prog.cursor()
        assert c.peek().iteration == 0
        assert c.next_instr().iteration == 0
        assert c.next_instr().iteration == 1

    def test_compute_expands_to_distinct_pcs(self):
        prog = WarpProgram(ops=[ComputeOp(3)])
        c = prog.cursor()
        pcs = [c.next_instr().pc for _ in range(3)]
        assert len(set(pcs)) == 3

    def test_cursors_independent(self):
        prog = WarpProgram(ops=[ComputeOp(2), LoadOp(make_site())])
        c1, c2 = prog.cursor(), prog.cursor()
        c1.next_instr()
        assert c2.peek().kind is InstrKind.ALU


class TestStridedPattern:
    def test_warp_stride(self):
        fn = strided_pattern(0x1000, warp_stride=256)
        assert fn(ctx(warp=0))[0] == 0x1000
        assert fn(ctx(warp=3))[0] == 0x1000 + 3 * 256

    def test_cta_base_contiguous_by_default(self):
        fn = strided_pattern(0, warp_stride=128)
        # CTA base = cta * warps_per_cta * stride
        assert fn(ctx(cta=2, warp=0, wpc=4))[0] == 2 * 4 * 128

    def test_custom_cta_base_fn(self):
        fn = strided_pattern(0, warp_stride=128, cta_base_fn=lambda c: c * 999)
        assert fn(ctx(cta=3))[0] == 3 * 999

    def test_lines_per_access(self):
        fn = strided_pattern(0, warp_stride=128, lines_per_access=3)
        assert fn(ctx()) == (0, 128, 256)

    def test_iteration_stride(self):
        fn = strided_pattern(0, warp_stride=128, iter_stride=4096)
        assert fn(ctx(iteration=2))[0] == 8192
