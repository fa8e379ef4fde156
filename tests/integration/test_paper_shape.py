"""The paper's headline claims as a regression gate.

Runs a representative benchmark subset at SMALL scale (the machine
``repro validate`` runs the whole suite on) and grades the rows of
:data:`repro.analysis.validate.CLAIMS` that read Figures 10 / 12 / 13 /
14a / 15 — the same rows, measures and bands as the scoreboard, on 54
cells.  Slower than the unit tests (~20 s) but the single most important
test in the suite: it fails if a change stops the code from reproducing
the paper.
"""

import pytest

from repro.analysis.validate import experiment_plan, run_plan, scoreboard
from repro.workloads import Scale

#: Regular + irregular representatives covering the main behaviours:
#: CAPS's best case (CNV), a loop app (MM), a throttled app (HSP) and a
#: graph app (BFS, KM).
SUBSET = ("CNV", "BPR", "MM", "HSP", "KM", "BFS")
FIGURES = ("fig10", "fig12", "fig13", "fig14a", "fig15")


@pytest.fixture(scope="module")
def rows():
    plan = [entry for entry in experiment_plan(benchmarks=SUBSET,
                                               scale=Scale.SMALL)
            if entry[0] in FIGURES]
    return scoreboard(run_plan(plan))


def test_all_shape_checks_pass(rows):
    assert [" ".join(row.cells()) for row in rows
            if row.status != "pass"] == []


def test_checks_cover_the_headline_claims(rows):
    assert {
        "caps_mean_all",
        "caps_best_case_cnv",
        "inter_mean_negative",
        "caps_beats_every_engine",
        "caps_accuracy",
        "caps_dram_overhead",
        "caps_early_ratio",
        "caps_mean_energy",
    } <= {row.claim.name for row in rows}


def test_check_formatting(rows):
    row, = [r for r in rows if r.claim.name == "caps_best_case_cnv"]
    assert row.cells() == ("caps_best_case_cnv", "1.27",
                           f"{round(row.measured, 4):g}", "> 1.12", "pass")
