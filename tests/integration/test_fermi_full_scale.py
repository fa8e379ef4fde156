"""Full-scale smoke: the Table III machine (15 SMs, 12 L2 partitions,
6 DRAM channels) runs FULL-scale workloads end-to-end.

One benchmark keeps this fast (~5 s); the complete full-scale matrix is
``repro validate --full-scale`` (the ``fig10_full`` rows of
``repro.analysis.validate.CLAIMS``).
"""

import pytest

from repro.config import SchedulerKind, fermi_config
from repro.prefetch import make_prefetcher
from repro.sim.gpu import GPU, simulate
from repro.workloads import Scale, build


@pytest.fixture(scope="module")
def cfg():
    return fermi_config(max_cycles=3_000_000)


def test_fermi_machine_shape(cfg):
    gpu = GPU([build("BPR", Scale.FULL)], cfg)
    assert len(gpu.sms) == 15
    assert len(gpu.subsystem.partitions) == 12
    assert len(gpu.subsystem.channels) == 6
    assert gpu.app.num_ctas == 240


def test_full_scale_baseline_completes(cfg):
    r = simulate(build("BPR", Scale.FULL), cfg)
    assert r.completed
    assert r.sm_stats.ctas_executed == 240
    # 15 single-issue SMs: IPC bounded by 15, and a memory-intensive
    # kernel with 240 CTAs should keep well over half the machine busy
    assert 5.0 < r.ipc <= 15.0


def test_full_scale_caps_profits(cfg):
    base = simulate(build("BPR", Scale.FULL), cfg)
    caps = simulate(
        build("BPR", Scale.FULL),
        cfg.with_scheduler(SchedulerKind.PAS),
        make_prefetcher("caps"),
    )
    assert caps.completed
    assert caps.ipc / base.ipc > 1.1
    assert caps.accuracy() > 0.95
