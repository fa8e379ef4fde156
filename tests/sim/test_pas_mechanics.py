"""White-box tests of PAS mechanics inside a running SM: the leading
marker lifecycle and the prefetch candidate queue."""


from repro.config import SchedulerKind
from repro.config import test_config as tiny_config
from repro.prefetch.base import PrefetchCandidate
from repro.sim.gpu import GPU
from repro.sim.isa import ComputeOp, LoadOp, LoadSite, WarpProgram, strided_pattern
from repro.sim.kernel import KernelInfo


def kernel_with_loads(n_loads, warps=4, ctas=2):
    ops = [ComputeOp(2)]
    for i in range(n_loads):
        site = LoadSite(
            pc=0,
            pattern=strided_pattern((1 << 22) + i * (1 << 24), warp_stride=128),
        )
        ops += [LoadOp(site), ComputeOp(4)]
    return KernelInfo("lead", ctas, warps, WarpProgram(ops=ops))


def pas_gpu(kernel, **kw):
    return GPU([kernel], tiny_config(**kw).with_scheduler(SchedulerKind.PAS))


class TestLeadingMarkerLifecycle:
    def test_one_leader_per_cta_at_launch(self):
        gpu = pas_gpu(kernel_with_loads(2))
        for sm in gpu.sms:
            for cta in sm.cta_slots:
                if cta is None:
                    continue
                leaders = [w for w in cta.warps if w.leading]
                assert len(leaders) == 1
                assert leaders[0].warp_in_cta == 0

    def test_marker_expires_after_targeted_loads(self):
        kernel = kernel_with_loads(5)  # more sites than DIST entries (4)
        gpu = pas_gpu(kernel, num_sms=1)
        leaders = [
            w for sm in gpu.sms for w in sm.warps_by_uid.values() if w.leading
        ]
        gpu.run(max_cycles=5_000)
        # after the run every erstwhile leader issued >= 4 loads, so the
        # marker must have been disarmed mid-run
        for w in leaders:
            assert not w.leading
            assert w.lead_loads_issued >= 4

    def test_marker_expiry_capped_by_site_count(self):
        """A 2-load kernel disarms after 2 loads (min with DIST size)."""
        kernel = kernel_with_loads(2)
        gpu = pas_gpu(kernel, num_sms=1)
        leaders = [
            w for sm in gpu.sms for w in sm.warps_by_uid.values() if w.leading
        ]
        gpu.run(max_cycles=5_000)
        for w in leaders:
            assert w.lead_loads_issued == 2
            assert not w.leading

    def test_no_markers_without_pas(self):
        gpu = GPU([kernel_with_loads(2)], tiny_config())
        assert not any(
            w.leading for sm in gpu.sms for w in sm.warps_by_uid.values()
        )


class TestPrefetchQueue:
    def _sm(self):
        gpu = pas_gpu(kernel_with_loads(1), num_sms=1)
        return gpu.sms[0]

    def test_duplicate_lines_not_enqueued(self):
        sm = self._sm()
        cands = [PrefetchCandidate(line_addr=0x8000, pc=1),
                 PrefetchCandidate(line_addr=0x8040, pc=1)]  # same line
        sm.enqueue_prefetches(cands)
        assert len(sm.prefetch_queue) == 1

    def test_tail_drop_on_overflow(self):
        from repro.sim import sm as sm_mod
        sm = self._sm()
        cands = [
            PrefetchCandidate(line_addr=i * 128, pc=1)
            for i in range(sm_mod.PREFETCH_QUEUE_DEPTH + 10)
        ]
        sm.enqueue_prefetches(cands)
        assert len(sm.prefetch_queue) == sm_mod.PREFETCH_QUEUE_DEPTH
        assert sm.pstats.queue_drops == 10
        # the oldest candidates survived (tail drop)
        assert sm.prefetch_queue[0].line_addr == 0

    def test_candidates_counted(self):
        sm = self._sm()
        sm.enqueue_prefetches([PrefetchCandidate(line_addr=0, pc=1)])
        assert sm.pstats.candidates == 1
