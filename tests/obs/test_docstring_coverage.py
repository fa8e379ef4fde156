"""Docstring-coverage gate over the public API surfaces.

The one place the gate runs (locally and in CI's tier-1 step), using
the stdlib checker in ``tools/check_docstrings.py``.
"""

from __future__ import annotations

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

import check_docstrings  # noqa: E402

#: The public surfaces the gate covers.
GATE_TARGETS = [
    "src/repro/obs",
    "src/repro/exec",
    "src/repro/guard",
    "src/repro/sim/gpu.py",
    "src/repro/sim/sched.py",
    "src/repro/config.py",
    "src/repro/prefetch/base.py",
]
FAIL_UNDER = 90.0


def test_docstring_coverage_gate():
    targets = [str(REPO / t) for t in GATE_TARGETS]
    coverage, missing = check_docstrings.run(targets, FAIL_UNDER)
    assert coverage >= FAIL_UNDER, (
        f"docstring coverage {coverage:.1f}% < {FAIL_UNDER}%; missing:\n"
        + "\n".join(f"  {m}" for m in missing)
    )


def test_no_figure_simulates_outside_a_batch():
    """Source-level fence beside the docstring gate: ``figures.py``
    names cells and reads results (docs/execution.md); the
    one-cell-at-a-time ``run_benchmark`` is not used there."""
    source = (REPO / "src/repro/analysis/figures.py").read_text()
    assert source.count("run_benchmark") == 0


def test_checker_counts_correctly(tmp_path):
    good = tmp_path / "good.py"
    good.write_text('"""mod."""\n\ndef f():\n    """doc."""\n')
    bad = tmp_path / "bad.py"
    bad.write_text("def g():\n    pass\n\ndef _private():\n    pass\n")
    coverage, missing = check_docstrings.run([str(tmp_path)], 100.0)
    # good.py: module + f documented (2/2); bad.py: module + g missing
    # (0/2, _private ignored) -> 50% overall.
    assert coverage == 50.0
    assert len(missing) == 2


def test_cli_exit_codes(tmp_path, capsys):
    f = tmp_path / "m.py"
    f.write_text('"""mod."""\n')
    assert check_docstrings.main([str(f), "--fail-under", "100"]) == 0
    f.write_text("x = 1\n")
    assert check_docstrings.main([str(f), "--fail-under", "100"]) == 1
    out = capsys.readouterr().out
    assert "PASSED" in out and "FAILED" in out
