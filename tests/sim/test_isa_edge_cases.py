"""Edge-case tests for the instruction-stream model beyond the basics."""


from repro.sim.isa import (
    ComputeOp,
    InstrKind,
    LoadOp,
    LoadSite,
    LoopOp,
    StoreOp,
    WarpProgram,
    strided_pattern,
)


def site(base=0x1000):
    return LoadSite(pc=0, pattern=strided_pattern(base, warp_stride=128))


class TestPcStability:
    def test_pcs_stable_across_cursors(self):
        s = site()
        prog = WarpProgram(ops=[ComputeOp(2), LoopOp(2, [LoadOp(s)])])
        def pcs():
            c = prog.cursor()
            out = []
            while not c.done:
                i = c.next_instr()
                if i.kind is not InstrKind.EXIT:
                    out.append(i.pc)
            return out
        assert pcs() == pcs()

    def test_load_and_store_share_site_pc(self):
        s = site()
        prog = WarpProgram(ops=[LoadOp(s), StoreOp(s)])
        c = prog.cursor()
        a, b = c.next_instr(), c.next_instr()
        assert a.pc == b.pc == s.pc

    def test_distinct_sites_distinct_pcs_deep_nesting(self):
        sites = [site(0x1000 * (i + 1)) for i in range(4)]
        prog = WarpProgram(ops=[
            LoadOp(sites[0]),
            LoopOp(2, [LoadOp(sites[1]),
                       LoopOp(2, [LoadOp(sites[2])]),
                       LoadOp(sites[3])]),
        ])
        pcs = {s.pc for s in prog.load_sites()}
        assert len(pcs) == 4


class TestAluInstrCache:
    def test_cached_instrs_shared_across_cursors(self):
        """Both cursors read one compiled program (the per-op ``Instr``
        cache it replaced is gone) and yield equal ALU streams."""
        op = ComputeOp(3)
        prog = WarpProgram(ops=[op])
        c1, c2 = prog.cursor(), prog.cursor()
        assert c1.code is c2.code
        i1 = [c1.next_instr() for _ in range(3)]
        i2 = [c2.next_instr() for _ in range(3)]
        assert i1 == i2

    def test_cache_preserves_distinct_pcs(self):
        prog = WarpProgram(ops=[ComputeOp(4)])
        c = prog.cursor()
        pcs = [c.next_instr().pc for _ in range(4)]
        assert len(set(pcs)) == 4

    def test_latency_propagated(self):
        prog = WarpProgram(ops=[ComputeOp(2, latency=9)])
        c = prog.cursor()
        assert c.next_instr().latency == 9


class TestSiteIterationTracking:
    def test_site_iteration_counts_per_cursor(self):
        s = site()
        prog = WarpProgram(ops=[LoopOp(3, [LoadOp(s)])])
        c1, c2 = prog.cursor(), prog.cursor()
        c1.next_instr()
        c1.next_instr()
        assert c1.site_iteration(s) == 2
        assert c2.site_iteration(s) == 0

    def test_store_counts_iterations_too(self):
        s = site()
        prog = WarpProgram(ops=[LoopOp(2, [StoreOp(s)])])
        c = prog.cursor()
        first = c.next_instr()
        second = c.next_instr()
        assert (first.iteration, second.iteration) == (0, 1)


class TestUseDistancePlumbed:
    def test_use_distance_reaches_instr(self):
        prog = WarpProgram(ops=[LoadOp(site(), use_distance=7)])
        assert prog.cursor().next_instr().use_distance == 7

    def test_default_zero(self):
        prog = WarpProgram(ops=[LoadOp(site())])
        assert prog.cursor().next_instr().use_distance == 0
