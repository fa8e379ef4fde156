"""Tests for the set-associative cache and MSHR file (repro.mem.cache)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import CacheConfig
from repro.mem.cache import Cache, Mshr, MshrFullError
from repro.mem.request import Access, MemoryRequest


def cache(size=4 * 128, assoc=4, line=128, mshr=4):
    return Cache(CacheConfig(size_bytes=size, line_bytes=line, assoc=assoc,
                             hit_latency=1, mshr_entries=mshr))


def req(line_addr, access=Access.DEMAND, **kw):
    return MemoryRequest(line_addr=line_addr, sm_id=0, access=access, **kw)


class TestCacheBasics:
    def test_miss_then_hit(self):
        c = cache()
        assert c.lookup(0) is None
        c.fill(0)
        assert c.lookup(0) is not None
        assert c.accesses == 2 and c.hits == 1 and c.misses == 1

    def test_align(self):
        c = cache()
        assert c.align(0) == 0
        assert c.align(127) == 0
        assert c.align(128) == 128
        assert c.align(300) == 256

    def test_probe_does_not_count(self):
        c = cache()
        c.fill(0)
        assert c.probe(0) is not None
        assert c.probe(128) is None
        assert c.accesses == 0

    def test_distinct_sets_do_not_conflict(self):
        c = cache(size=8 * 128, assoc=4)  # 2 sets
        c.fill(0)
        c.fill(128)
        assert c.probe(0) and c.probe(128)

    def test_occupancy_and_flush(self):
        c = cache()
        for i in range(3):
            c.fill(i * 128 * c.num_sets)  # same set
        assert c.occupancy() == 3
        c.flush()
        assert c.occupancy() == 0


class TestLRUReplacement:
    def test_evicts_least_recently_used(self):
        c = cache(size=4 * 128, assoc=4)  # 1 set, 4 ways
        lines = [i * 128 for i in range(4)]
        for a in lines:
            c.fill(a)
        c.lookup(0)  # touch line 0 -> line 128 is now LRU
        victim = c.fill(4 * 128)
        assert victim is not None
        assert victim.line_addr == 128

    def test_refill_same_line_evicts_nothing(self):
        c = cache(size=4 * 128, assoc=4)
        for a in (0, 128, 256, 384):
            c.fill(a)
        assert c.fill(0) is None

    def test_victim_metadata_reports_prefetch_state(self):
        c = cache(size=1 * 128, assoc=1)
        c.fill(0, prefetched=True)
        victim = c.fill(128)
        assert victim.prefetched and not victim.used

    def test_used_prefetched_victim(self):
        c = cache(size=1 * 128, assoc=1)
        c.fill(0, prefetched=True)
        line = c.lookup(0)
        line.used = True
        victim = c.fill(128)
        assert victim.prefetched and victim.used

    def test_victim_line_addr_reconstruction(self):
        c = cache(size=8 * 128, assoc=1)  # 8 sets, direct-mapped
        addr = 5 * 128
        c.fill(addr)
        victim = c.fill(addr + 8 * 128)
        assert victim.line_addr == addr


class _ReferenceLRU:
    """Tag sets that remember each line's last touch and evict the least
    recently touched line of a full set (no reliance on dict order)."""

    def __init__(self, num_sets, assoc):
        self.num_sets, self.assoc = num_sets, assoc
        self.sets = [{} for _ in range(num_sets)]  # line_no -> last touch
        self.clock = 0

    def _set(self, line_no):
        return self.sets[line_no % self.num_sets]

    def lookup(self, line_no):
        self.clock += 1
        lines = self._set(line_no)
        if line_no in lines:
            lines[line_no] = self.clock
            return True
        return False

    def probe(self, line_no):
        return line_no in self._set(line_no)

    def fill(self, line_no):
        self.clock += 1
        lines = self._set(line_no)
        victim = None
        if line_no not in lines and len(lines) >= self.assoc:
            victim = min(lines, key=lines.get)
            del lines[victim]
        lines[line_no] = self.clock
        return victim


#: (operation, line number) streams over 12 lines of a 2-set cache, so
#: a set holds 4 of its 6 lines and most fills refill or evict.
OPS = st.lists(st.tuples(
    st.sampled_from(("lookup", "lookup_uncounted", "probe", "fill", "fill",
                     "fill_prefetch")),
    st.integers(0, 11)), max_size=150)


class TestLRUProperty:
    @settings(max_examples=200, deadline=None)
    @given(OPS)
    # A refill and an uncounted hit each make their line most recent.
    @example([("fill", 0), ("fill", 2), ("fill", 4), ("fill", 6),
              ("fill", 0), ("lookup_uncounted", 2), ("fill", 8),
              ("fill", 10)])
    def test_matches_least_recently_touched_reference(self, ops):
        """Hits, misses and victims of a 2-set, 4-way cache match a model
        that evicts the least recently touched line, across counted and
        uncounted lookups, probes, fills and refills."""
        c = cache(size=8 * 128, assoc=4)
        ref = _ReferenceLRU(c.num_sets, c.assoc)
        hits = misses = 0
        for op, line_no in ops:
            addr = line_no * 128
            if op == "probe":
                assert (c.probe(addr) is not None) == ref.probe(line_no)
            elif op.startswith("lookup"):
                count = op == "lookup"
                hit = ref.lookup(line_no)
                assert (c.lookup(addr, count=count) is not None) == hit
                if count:
                    hits += hit
                    misses += not hit
            else:
                victim = c.fill(addr, prefetched=op == "fill_prefetch")
                expect = ref.fill(line_no)
                got = None if victim is None else victim.line_addr // 128
                assert got == expect
        assert (c.hits, c.misses, c.accesses) == (hits, misses, hits + misses)
        assert c.occupancy() == sum(len(s) for s in ref.sets)


class TestPrefetchedLineState:
    def test_fill_prefetched_records_metadata(self):
        c = cache()
        c.fill(0, prefetched=True, prefetch_pc=0x40, prefetch_issue_cycle=123)
        line = c.probe(0)
        assert line.prefetched and not line.used
        assert line.prefetch_pc == 0x40
        assert line.prefetch_issue_cycle == 123

    def test_demand_fill_marks_used(self):
        c = cache()
        c.fill(0)
        assert c.probe(0).used


class TestMshr:
    def test_allocate_and_release(self):
        m = Mshr(2)
        r = req(0)
        m.allocate(r)
        assert m.pending(0)
        assert m.release(0) == [r]
        assert not m.pending(0)

    def test_merge_appends(self):
        m = Mshr(2)
        a, b = req(0), req(0)
        m.allocate(a)
        m.merge(b)
        assert m.release(0) == [a, b]

    def test_full_raises(self):
        m = Mshr(1)
        m.allocate(req(0))
        with pytest.raises(MshrFullError):
            m.allocate(req(128))

    def test_double_allocate_same_line_rejected(self):
        m = Mshr(2)
        m.allocate(req(0))
        with pytest.raises(ValueError):
            m.allocate(req(0))

    def test_merge_limit(self):
        m = Mshr(2, merge_limit=2)
        m.allocate(req(0))
        m.merge(req(0))
        assert not m.can_merge(0)
        with pytest.raises(MshrFullError):
            m.merge(req(0))

    def test_merge_missing_line_raises(self):
        with pytest.raises(KeyError):
            Mshr(2).merge(req(0))

    def test_release_missing_line_raises(self):
        with pytest.raises(KeyError):
            Mshr(2).release(0)

    def test_prefetch_only_classification(self):
        m = Mshr(2)
        m.allocate(req(0, access=Access.PREFETCH))
        assert m.entry_is_prefetch_only(0)
        m.merge(req(0, access=Access.DEMAND))
        assert not m.entry_is_prefetch_only(0)

    def test_peak_occupancy(self):
        m = Mshr(3)
        m.allocate(req(0))
        m.allocate(req(128))
        m.release(0)
        m.allocate(req(256))
        assert m.peak_occupancy == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Mshr(0)
