"""Tests for CTA distribution (repro.sim.cta) — paper Fig. 3 semantics.

One distributor serves every launch; these cases drive it with a single
kernel (the paper's setting), plus the refusals and the policy
inertness a launch of one relies on.
"""

import pytest

from repro.config import test_config as tiny_config
from repro.sim.cta import CTADistributor
from tests.conftest import make_stream_kernel


def _dist(num_ctas, num_sms, max_ctas_per_sm, policy="leftover"):
    cfg = tiny_config(num_sms=num_sms, max_ctas_per_sm=max_ctas_per_sm
                      ).with_multi(alloc_policy=policy)
    return CTADistributor(
        [make_stream_kernel(num_ctas=num_ctas, warps_per_cta=1)], cfg)


def _finish(d, sm_id):
    """Retire one CTA of kernel 0 on ``sm_id``; the CTA ids granted."""
    return [cta for _, cta in d.on_cta_finish(sm_id, 0, duration=1, now=1)]


def _seen_by(d, sm_id):
    return [a.cta_id for a in d.history if a.sm_id == sm_id]


class TestInitialFill:
    def test_round_robin_order(self):
        d = _dist(num_ctas=12, num_sms=3, max_ctas_per_sm=2)
        fill = d.initial_fill()
        # One CTA per SM per round: (sm0,0) (sm1,1) (sm2,2) (sm0,3) ...
        assert fill == [(0, 0, 0), (1, 0, 1), (2, 0, 2),
                        (0, 0, 3), (1, 0, 4), (2, 0, 5)]
        assert d.remaining == 6

    def test_fewer_ctas_than_slots(self):
        d = _dist(num_ctas=4, num_sms=3, max_ctas_per_sm=2)
        fill = d.initial_fill()
        assert [cta for _, _, cta in fill] == [0, 1, 2, 3]
        assert d.remaining == 0

    def test_initial_fill_only_once(self):
        d = _dist(4, 2, 2)
        d.initial_fill()
        with pytest.raises(RuntimeError):
            d.initial_fill()

    def test_active_counts(self):
        d = _dist(12, 3, 2)
        d.initial_fill()
        assert d.active == [[2], [2], [2]]


class TestDemandDriven:
    def test_finishing_sm_gets_next_cta(self):
        """Paper's Figure 3: CTA 5 on SM 2 finishes first -> CTA 6 goes
        to SM 2; then CTA 3 on SM 0 finishes -> CTA 7 to SM 0."""
        d = _dist(num_ctas=12, num_sms=3, max_ctas_per_sm=2)
        d.initial_fill()
        assert _finish(d, 2) == [6]
        assert _finish(d, 0) == [7]

    def test_returns_none_when_exhausted(self):
        d = _dist(num_ctas=6, num_sms=3, max_ctas_per_sm=2)
        d.initial_fill()
        assert _finish(d, 1) == []
        assert d.active[1] == [1]

    def test_finish_without_active_raises(self):
        d = _dist(num_ctas=6, num_sms=3, max_ctas_per_sm=2)
        d.initial_fill()
        _finish(d, 1)
        _finish(d, 1)
        with pytest.raises(RuntimeError):
            _finish(d, 1)

    def test_bad_sm_id(self):
        d = _dist(6, 3, 2)
        d.initial_fill()
        for sm_id in (5, -1):
            with pytest.raises(IndexError):
                _finish(d, sm_id)

    def test_sm_local_ctas_not_consecutive(self):
        """The motivating observation: an SM sees non-consecutive CTA
        ids, so inter-CTA strides within an SM are irregular."""
        d = _dist(num_ctas=24, num_sms=3, max_ctas_per_sm=2)
        d.initial_fill()
        # SM 0 keeps finishing; it gets every freed CTA.
        for _ in range(4):
            _finish(d, 0)
        seen = _seen_by(d, 0)
        assert seen[0] == 0 and seen[1] == 3
        diffs = [b - a for a, b in zip(seen, seen[1:])]
        assert any(x != 1 for x in diffs)

    def test_every_cta_issued_exactly_once(self):
        d = _dist(num_ctas=20, num_sms=4, max_ctas_per_sm=2)
        d.initial_fill()
        sm = 0
        while d.remaining:
            _finish(d, sm % 4)
            sm += 1
        issued = [a.cta_id for a in d.history]
        assert sorted(issued) == list(range(20))

    @pytest.mark.parametrize("policy", ["spatial", "leftover", "preempt"])
    def test_every_policy_gives_figure_3(self, policy):
        """With one kernel every policy's order is ``(0,)``: the same
        round-robin fill and the same refills, CTA for CTA."""
        d = _dist(12, 3, 2, policy)
        d.initial_fill()
        for sm in [2, 0, 1, 2, 0, 1]:
            _finish(d, sm)
        assert [_seen_by(d, sm) for sm in range(3)] == \
            [[0, 3, 7, 10], [1, 4, 8, 11], [2, 5, 6, 9]]


class TestValidation:
    @pytest.mark.parametrize("args", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_non_positive(self, args):
        # The kernel refuses an empty grid, the config an SM-less
        # machine or a zero CTA limit (ConfigError is a ValueError).
        with pytest.raises(ValueError):
            _dist(*args)
