"""Unit tests for the claims table (repro.analysis.validate): ``grade``
on stub figure data, so no simulation runs."""

import copy
import math
import pathlib
import re

from repro.analysis.figures import ENGINES, Fig1Point, Fig4Row
from repro.analysis.validate import (CLAIMS, experiment_plan, grade,
                                     reproduced, scoreboard)
from repro.workloads import ALL_BENCHMARKS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _healthy():
    """Data shaped like each figure function's, on which every claim
    holds."""
    ipc = dict(intra=0.99, inter=0.94, mta=0.96, nlp=0.93, lap=0.99,
               orch=1.0, caps=1.08)
    fig10 = {row: dict(ipc) for row in ("CNV", "BPR", "LPS", "CCL", "BFS",
                                        "Mean(reg)", "Mean(irreg)",
                                        "Mean(all)")}
    fig10["CNV"]["caps"] = 1.2
    pairs = {e: (0.4, 0.3) for e in ENGINES}
    fig12 = {b: dict(pairs, caps=(0.1, 0.98))
             for b in ("HSP", "PVR", "CCL", "BFS", "Mean")}
    fig12["Issued"] = {e: 10 for e in ENGINES}
    variant = dict(speedup={"HSP": 1.0, "CNV": 1.2}, geomean=1.1)
    return {
        "fig1": [Fig1Point(d, 0.9 if d < 8 else 0.2, 40.0 * d, 100)
                 for d in range(1, 11)],
        "fig4": [Fig4Row(b, 0, 1, 2.0 if b in ("LPS", "STE", "HST", "MM",
                                                "KM", "BFS") else 1.0, 1.0)
                 for b in ALL_BENCHMARKS],
        "fig10": fig10,
        "fig10_full": copy.deepcopy(fig10),
        "fig11": {1: dict.fromkeys(("none",) + tuple(ENGINES), 0.5),
                  8: dict(ipc, none=1.0)},
        "fig12": fig12,
        "fig13": {"Mean": dict({e: (1.2, 1.5) for e in ENGINES},
                               caps=(1.02, 1.01))},
        "fig14a": dict(intra=0.2, inter=0.6, mta=0.4, caps=0.01,
                       caps_no_wakeup=0.02),
        "fig14b": {"LRR": 60.0, "TLV": 150.0, "PA-TLV": 170.0},
        "fig15": {"CNV": 0.95, "BFS": 1.0, "Mean": 0.98},
        "ablations": {study: {label: variant for label in labels}
                      for study, labels in (
                          ("threshold", (2, 64)), ("tables", (1, 4, 8)),
                          ("window", (2, 16)),
                          ("scheduler", ("two-level", "PAS")))},
        "sensitivity": {
            "l1": {kb: dict(variant, base_ipc=3.0) for kb in (8, 64)},
            "warps": {n: variant for n in (24, 48)},
            "dram": {n: dict(variant, base_ipc=float(n)) for n in (1, 4)},
        },
        "sec1_nn": {"stall_all": 0.62, "completed": 1.0},
    }


def _failed(data):
    return [row.claim.name for row in scoreboard(data)
            if row.status == "FAIL"]


class TestValidateShape:
    def test_healthy_shape_passes(self):
        rows = scoreboard(_healthy())
        assert {row.claim for row in rows} == set(CLAIMS)
        assert [row.claim.name for row in rows if row.status != "pass"] == []
        assert reproduced(rows)

    def test_caps_slowdown_fails(self):
        data = _healthy()
        data["fig10"]["Mean(all)"]["caps"] = 1.01
        assert _failed(data) == ["caps_mean_all"]
        assert not reproduced(scoreboard(data))

    def test_inter_winning_fails(self):
        data = _healthy()
        data["fig10"]["Mean(all)"]["inter"] = 1.005
        assert _failed(data) == ["inter_mean_negative"]

    def test_low_accuracy_fails(self):
        data = _healthy()
        data["fig12"]["Mean"]["caps"] = (0.1, 0.5)
        assert _failed(data) == ["caps_accuracy"]

    def test_traffic_blowup_fails(self):
        data = _healthy()
        data["fig13"]["Mean"]["caps"] = (1.02, 1.07)
        assert _failed(data) == ["caps_dram_overhead"]

    def test_early_evictions_fail(self):
        data = _healthy()
        data["fig14a"].update(caps=0.15, caps_no_wakeup=0.16)
        assert _failed(data) == ["caps_early_ratio"]


class TestNothingToMeasure:
    """A row with no input on this benchmark set is ``n/a``: printed as
    such, never a ``FAIL 0.000`` and never deciding the exit code."""

    def test_no_prefetch_issued(self):
        data = _healthy()
        data["fig12"]["Issued"]["caps"] = 0
        data["fig12"]["Mean"]["caps"] = (0.0, 0.0)
        data["fig14a"] = dict.fromkeys(data["fig14a"])
        data["fig14b"] = dict.fromkeys(data["fig14b"])
        status = {row.claim.name: row.status for row in scoreboard(data)}
        for name in ("caps_accuracy", "caps_most_accurate",
                     "caps_early_ratio", "eager_wakeup_no_worse",
                     "caps_below_stride_engines",
                     "lrr_shorter_than_two_level", "pas_distance"):
            assert status[name] == "n/a", name
        assert reproduced(scoreboard(data))

    def test_absent_benchmark_or_group(self):
        fig10 = _healthy()["fig10"]
        for row in ("CNV", "Mean(irreg)", "CCL"):
            del fig10[row]
        status = {row.claim.name: row for row in grade("fig10", fig10)
                  + grade("fig10_full", fig10)
                  + grade("fig12", {"Mean": {}, "Issued": {}})}
        for name in ("caps_best_case_cnv", "caps_mean_irregular",
                     "full_spot_check", "hsp_throttled",
                     "indirect_apps_low_coverage"):
            assert status[name].status == "n/a", name
            assert status[name].cells()[2] == "n/a"
        assert status["caps_mean_regular"].status == "pass"


class TestTable:
    def test_invariants(self):
        names = [c.name for c in CLAIMS]
        assert len(names) == len(set(names))
        planned = {name for name, _, _ in
                   experiment_plan(include_full_scale=True)}
        for c in CLAIMS:
            assert c.paper not in ("", None), c.name
            assert math.isfinite(c.lo) or math.isfinite(c.hi), c.name
            assert c.lo <= c.hi, c.name
            assert c.figure in planned, c.name

    def test_each_paper_number_is_written_once(self):
        """A paper number has one home under ``src/repro/``: its row
        (708: the report's Tables I & II section).  ``core/`` is the
        measured side — ``hwcost.py`` derives the 708 bytes."""
        source = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py"))
                           if "core" not in p.parts)
        for number in ("1.08", "1.27", "0.97", "0.0091", "172.7", "708",
                       "0.98"):
            hits = re.findall(rf"(?<![\d.]){re.escape(number)}(?![\d])",
                              source)
            assert len(hits) == 1, (number, len(hits))

    def test_row_formatting(self):
        row, = [r for r in grade("fig10", _healthy()["fig10"])
                if r.claim.name == "lap_near_neutral"]
        assert row.cells() == ("lap_near_neutral",
                               "~+1 % on a two-level baseline", "0.99",
                               "> 0.9, <= 1.05", "pass")
