"""Smoke tests for the EXPERIMENTS.md generator."""

import pytest

from repro.analysis import driver
from repro.analysis.experiments_md import generate_experiments_md, render
from repro.analysis.validate import (CLAIMS, experiment_plan, run_plan,
                                     scoreboard)
from repro.config import test_config as tiny_config
from repro.exec import ExecutionEngine
from repro.workloads import Scale


@pytest.fixture(scope="module")
def run():
    plan = experiment_plan(
        scale=Scale.TINY,
        benchmarks=("SCN", "BFS"),
        fig11_benchmarks=("SCN",),
        config=tiny_config(max_cycles=600_000),
    )
    return plan, run_plan(plan)


@pytest.fixture(scope="module")
def report(run):
    return render(*run)


class TestGenerator:
    def test_every_section_present(self, report):
        for heading in (
            "Figure 1", "Figure 4", "Tables I & II", "Figure 10",
            "Figure 11", "Figure 12", "Figure 13", "Figure 14",
            "Figure 15",
        ):
            assert heading in report

    def test_paper_reference_values_quoted(self, report):
        assert "1.08" in report           # fig10 mean(all)
        assert "708" in report            # table II total
        assert "172.7" in report          # fig14b PAS distance

    def test_benchmarks_listed(self, report):
        assert "SCN" in report and "BFS" in report

    def test_markdown_tables_well_formed(self, report):
        for line in report.splitlines():
            if line.startswith("|"):
                assert line.rstrip().endswith("|")

    def test_paper_constants_sane(self):
        paper = {c.name: c.paper for c in CLAIMS}
        assert paper["caps_mean_all"] == 1.08
        assert paper["pas_distance"] == 172.7
        assert paper["caps_early_ratio"] == 0.0091

    def test_report_cannot_contradict_its_table(self, run):
        """Every verdict in the report is a graded row, and a row's
        status is ``lo <= measured <= hi`` — here with the INTER mean
        and the Figure 14b distances that `figures --benchmarks
        CP,SCN,JC1,LPS --scale tiny` measures, under which the report
        used to print "the paper's ordering" all the same."""
        plan, data = run
        data = dict(data, fig14b={"LRR": 63.7, "TLV": 45.7, "PA-TLV": 43.2})
        data["fig10"] = dict(data["fig10"], **{
            "Mean(all)": dict(data["fig10"]["Mean(all)"], inter=1.027)})
        rows = scoreboard(data)
        lines = render(plan, data).splitlines()
        for row in rows:
            assert "| " + " | ".join(row.cells()) + " |" in lines
            c = row.claim
            assert row.status == (
                "n/a" if row.measured is None
                else "pass" if c.lo <= row.measured <= c.hi else "FAIL")
        status = {row.claim.name: row.status for row in rows}
        assert {"pass", "FAIL", "n/a"} == set(status.values())
        for name, sentence in (
                ("inter_mean_negative", "INTER is net negative"),
                ("lrr_shorter_than_two_level", "ordering matches")):
            assert status[name] == "FAIL"
            assert not any(sentence in line for line in lines)


@pytest.fixture
def fresh_engine():
    """Install an engine with an empty memo and its own event log."""
    def install(jobs=1):
        return driver.set_engine(ExecutionEngine(jobs=jobs))

    previous = driver.get_engine()
    yield install
    driver.set_engine(previous)


class TestOneBatch:
    """The generator plans every figure's cells and runs them as one
    batch: the plan is exactly what the figures then read."""

    def test_plan_is_exactly_the_demand(self, tmp_path, fresh_engine):
        engine = fresh_engine()
        generate_experiments_md(
            tmp_path / "EXPERIMENTS.md", scale=Scale.TINY,
            benchmarks=("SCN", "BFS"), fig11_benchmarks=("SCN",),
            config=tiny_config(max_cycles=600_000),
        )
        events = engine.events.events
        kinds = [e.kind for e in events]
        # One run of `queued`: nothing is queued once simulation began.
        assert "queued" not in kinds[kinds.index("started"):]
        # One batch: after it, every figure lookup is a memo hit.
        last = len(kinds) - 1 - kinds[::-1].index("finished")
        after = events[last + 1:]
        assert after and {e.kind for e in after} == {"cache_hit"}
        # Nothing was simulated that no figure reads.
        simulated = {(e.cell, e.config_hash) for e in events
                     if e.kind == "started"}
        assert simulated == {(e.cell, e.config_hash) for e in after}

    def test_same_bytes_at_jobs_1_and_2(self, tmp_path, fresh_engine):
        reports = []
        for jobs in (1, 2):
            engine = fresh_engine(jobs)
            path = generate_experiments_md(
                tmp_path / f"jobs-{jobs}.md", scale=Scale.TINY,
                benchmarks=("BFS", "CP"), fig11_benchmarks=("CP",),
                config=tiny_config(max_cycles=600_000),
            )
            reports.append(path.read_bytes())
            assert any(cell.startswith("BFS+CP/")
                       for cell in engine.events.cells("started"))
        assert reports[0] == reports[1]

