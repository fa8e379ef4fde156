"""Property-based tests (hypothesis) on the core data structures.

These check the invariants the whole simulation relies on: cache
occupancy/LRU discipline, MSHR conservation, pipe FIFO ordering,
distributor completeness, cursor/program equivalence, coalescing
algebra, and the address generators' determinism.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.config import ALLOC_POLICIES, CacheConfig
from repro.config import test_config as tiny_config
from repro.mem.cache import Cache, Mshr
from repro.mem.icnt import Pipe
from repro.mem.request import Access, MemoryRequest
from repro.sim.coalesce import coalesce
from repro.sim.cta import CTADistributor
from repro.sim.isa import ComputeOp, LoadOp, LoadSite, LoopOp, WarpProgram
from repro.sim.kernel import KernelInfo
from repro.workloads.generators import indirect, mix64

LINE = 128

lines = st.integers(min_value=0, max_value=255).map(lambda i: i * LINE)


class TestCacheProperties:
    @given(st.lists(lines, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        c = Cache(CacheConfig(size_bytes=8 * LINE, line_bytes=LINE, assoc=2,
                              hit_latency=1, mshr_entries=4))
        for a in addrs:
            c.fill(a)
            assert c.occupancy() <= 8
        # every line just filled (and not evicted) must be present
        assert c.probe(addrs[-1]) is not None

    @given(st.lists(lines, min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        c = Cache(CacheConfig(size_bytes=8 * LINE, line_bytes=LINE, assoc=2,
                              hit_latency=1, mshr_entries=4))
        for a in addrs:
            if c.lookup(a) is None:
                c.fill(a)
        assert c.hits + c.misses == c.accesses == len(addrs)

    @given(st.lists(lines, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_fill_then_probe_hits(self, addrs):
        """Direct-mapped: the most recent fill of a set is resident."""
        c = Cache(CacheConfig(size_bytes=4 * LINE, line_bytes=LINE, assoc=1,
                              hit_latency=1, mshr_entries=4))
        for a in addrs:
            c.fill(a)
            assert c.probe(a) is not None


class TestMshrProperties:
    @given(st.lists(st.tuples(lines, st.booleans()), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_requests_conserved(self, ops):
        """Every allocated/merged request comes back exactly once."""
        m = Mshr(8, merge_limit=32)
        entered, returned = [], []
        for addr, do_release in ops:
            if m.pending(addr):
                if do_release:
                    returned.extend(m.release(addr))
                    continue
                if m.can_merge(addr):
                    r = MemoryRequest(addr, 0, Access.DEMAND)
                    m.merge(r)
                    entered.append(r)
                continue
            if not m.full:
                r = MemoryRequest(addr, 0, Access.DEMAND)
                m.allocate(r)
                entered.append(r)
        for addr in [e.line_addr for e in entered]:
            if m.pending(addr):
                returned.extend(m.release(addr))
        assert Counter(id(r) for r in entered) == Counter(id(r) for r in returned)


class TestPipeProperties:
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60),
           st.integers(1, 4), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_fifo_and_latency(self, gaps, bw, latency):
        """Requests leave in push order and never before their latency."""
        p = Pipe(latency=latency, requests_per_cycle=bw, capacity=1000)
        t = 0
        pushed = []
        for g in gaps:
            t += g
            r = MemoryRequest(len(pushed) * LINE, 0, Access.DEMAND)
            p.push(r, t)
            pushed.append((r, t))
        out = []
        end = t + latency + len(pushed) // bw + 2
        for now in range(end + 1):
            p.drain(now, lambda r, _n=now: out.append((r, _n)) or True)
        assert [r for r, _ in out] == [r for r, _ in pushed]
        for (r, t_out), (_, t_in) in zip(out, pushed):
            assert t_out >= t_in + latency


class TestDistributorProperties:
    @given(st.integers(1, 60), st.integers(1, 6), st.integers(1, 4),
           st.sampled_from(ALLOC_POLICIES),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_every_cta_issued_once(self, n_ctas, n_sms, max_ctas, policy,
                                   rng):
        cfg = tiny_config(num_sms=n_sms, max_ctas_per_sm=max_ctas
                          ).with_multi(alloc_policy=policy)
        kernel = KernelInfo("k", n_ctas, 1, WarpProgram(ops=[ComputeOp(1)]))
        d = CTADistributor([kernel], cfg)
        active = [0] * n_sms
        for sm, _, _ in d.initial_fill():
            active[sm] += 1
        while any(active):
            sm = rng.choice([s for s, a in enumerate(active) if a])
            grants = d.on_cta_finish(sm, 0, duration=1, now=1)
            active[sm] += len(grants) - 1
            assert d.active[sm] == [active[sm]]
            assert active[sm] <= max_ctas
        issued = [a.cta_id for a in d.history]
        assert sorted(issued) == list(range(n_ctas))


class TestCursorProperties:
    @st.composite
    def programs(draw, depth=0):
        ops = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.integers(0, 2 if depth < 2 else 1))
            if kind == 0:
                ops.append(ComputeOp(draw(st.integers(1, 4))))
            elif kind == 1:
                ops.append(LoadOp(LoadSite(pc=0, pattern=lambda c: (0,))))
            else:
                ops.append(LoopOp(draw(st.integers(1, 3)),
                                  draw(TestCursorProperties.programs(depth + 1))))
        return ops

    @given(programs())
    @settings(max_examples=80, deadline=None)
    def test_cursor_yields_exactly_dynamic_count(self, ops):
        prog = WarpProgram(ops=ops)
        cursor = prog.cursor()
        n = 0
        while not cursor.done:
            i = cursor.next_instr()
            if i.kind.value != "exit":
                n += 1
        assert n == prog.dynamic_instruction_count()

    @given(programs())
    @settings(max_examples=40, deadline=None)
    def test_two_cursors_identical_streams(self, ops):
        prog = WarpProgram(ops=ops)
        c1, c2 = prog.cursor(), prog.cursor()
        while not c1.done:
            a, b = c1.next_instr(), c2.next_instr()
            assert (a.kind, a.pc, a.iteration) == (b.kind, b.pc, b.iteration)


class TestCoalesceProperties:
    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    @settings(max_examples=80, deadline=None)
    def test_lines_aligned_unique_and_cover(self, addrs):
        out = coalesce(addrs, LINE)
        assert len(set(out)) == len(out)
        for line in out:
            assert line % LINE == 0
        for a in addrs:
            assert a // LINE * LINE in out

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    @settings(max_examples=40, deadline=None)
    def test_idempotent(self, addrs):
        once = coalesce(addrs, LINE)
        assert coalesce(once, LINE) == once


class TestGeneratorProperties:
    @given(st.integers(0, 1 << 30), st.integers(0, 1 << 30))
    @settings(max_examples=60, deadline=None)
    def test_mix64_deterministic_and_bounded(self, a, b):
        assert mix64(a) == mix64(a)
        assert 0 <= mix64(a) < (1 << 64)
        if a != b:
            # not a strict requirement, but collisions should be absurdly
            # unlikely for small inputs
            assert mix64(a) != mix64(b)

    @given(st.integers(0, 100), st.integers(0, 63), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_indirect_in_bounds(self, cta, warp, iteration):
        from repro.sim.isa import AddressContext
        fn = indirect(1 << 20, region_lines=512, requests=8, seed=3)
        ctx = AddressContext(cta, warp, iteration, 64, 101)
        for a in fn(ctx):
            assert (1 << 20) <= a < (1 << 20) + 512 * LINE
