"""Smoke tests: every example script runs end-to-end.

Examples honour ``REPRO_SCALE=tiny`` so these stay fast.
"""

import os
import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *argv):
    env = dict(os.environ, REPRO_SCALE="tiny")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *argv],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py", "SCN")
    assert "speedup" in out
    assert "accuracy" in out


def test_quickstart_other_benchmark():
    out = run_example("quickstart.py", "bfs")
    assert "benchmark            : BFS" in out


def test_cta_distribution():
    out = run_example("cta_distribution.py")
    assert "SM 0 executed CTAs [0, 3, 7, 10]" in out
    assert "id deltas" in out


def test_prefetcher_shootout():
    out = run_example("prefetcher_shootout.py", "SCN")
    for engine in ("intra", "inter", "mta", "nlp", "lap", "orch", "caps"):
        assert engine in out


def test_irregular_graph_workload():
    out = run_example("irregular_graph_workload.py")
    assert "indirect (excluded from CAPS)" in out
    assert "INTER" in out


def test_scheduler_timeliness():
    out = run_example("scheduler_timeliness.py", "SCN")
    assert "LRR" in out and "PAS" in out


def test_burstiness_timeline():
    out = run_example("burstiness_timeline.py", "SCN")
    assert "burstiness" in out
    assert "with CAPS" in out
