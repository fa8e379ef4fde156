"""Tests for the sweep-path CLI (repro.cli): parser, run, sweep,
timeline, trace and figures."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_chrome_trace


class TestCLI:
    def test_parser_commands(self):
        p = build_parser()
        assert p.parse_args(["list"]).command == "list"
        args = p.parse_args(["run", "mm", "--engine", "caps"])
        assert args.bench == "MM"
        args = p.parse_args(["sweep", "--benchmarks", "SCN",
                             "--engines", "nlp"])
        assert args.command == "sweep"

    def test_unknown_bench_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "NOPE"])

    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Coulombic Potential" in out
        assert "caps" in out

    def test_run_with_store(self, tmp_path, capsys):
        """``--store`` is gone: the exec cache (``--cache``) and
        ``repro request --json`` are the machine-readable forms."""
        store_path = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["run", "SCN", "--engine", "nlp", "--scale", "tiny",
                  "--store", str(store_path)])
        assert err.value.code == 2
        assert "unrecognized arguments: --store" in capsys.readouterr().err
        assert not store_path.exists()

    def test_sweep(self, capsys):
        rc = main(["sweep", "--benchmarks", "SCN", "--engines", "nlp",
                   "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "geomean" in out


    def test_timeline_command(self, capsys):
        rc = main(["timeline", "SCN", "--scale", "tiny",
                   "--interval", "60", "--width", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "burstiness" in out
        assert "dram q" in out

    def test_timeline_names_cells_like_every_command(self, capsys):
        """Co-run names and aliases resolve through ``make_key``."""
        assert main(["timeline", "mrq+sgemm", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("MRQ+MM / none: IPC ")
        assert len(out.splitlines()) == 7
        with pytest.raises(SystemExit) as err:
            main(["timeline", "NOPE"])
        assert err.value.code == 2

    def test_trace_resolves_aliases(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert main(["trace", "sgemm", "--out", str(out_path)]) == 0
        assert capsys.readouterr().out.startswith("MM / caps: ")
        assert validate_chrome_trace(json.loads(out_path.read_text())) == []

    def test_figures_command_subset(self, tmp_path, capsys):
        rc = main(["figures", "--out", str(tmp_path), "--scale", "tiny",
                   "--benchmarks", "SCN,BFS"])
        assert rc == 0
        md = (tmp_path / "EXPERIMENTS.md").read_text()
        assert "Figure 10" in md and "SCN" in md
        assert "| FAIL |" in md     # rows fail at tiny scale; still exit 0

    def test_run_with_scheduler_override(self, capsys):
        rc = main(["run", "SCN", "--engine", "caps", "--scale", "tiny",
                   "--scheduler", "two_level"])
        assert rc == 0
        assert "speedup" in capsys.readouterr().out

    def test_bad_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "SCN", "--scheduler", "bogus"])

    def test_validate_parser(self):
        args = build_parser().parse_args(["validate", "--benchmarks", "MM"])
        assert args.command == "validate"
        assert args.benchmarks == ["MM"]
        assert not args.full_scale

    def test_validate_command_prints_the_scoreboard(self, capsys):
        rc = main(["validate", "--scale", "tiny", "--benchmarks", "CP"])
        out = capsys.readouterr().out.splitlines()
        assert (rc, out[-1]) == (1, "shape: BROKEN")
        # CAPS issues no prefetch on CP at this scale: nothing to
        # measure, which is not an accuracy of 0.000.
        accuracy, = [line for line in out if " caps_accuracy " in line]
        assert accuracy.split()[-4:] == ["n/a", ">", "0.85", "n/a"]


class TestCommaLists:
    """A bad name in a comma list is a usage error (exit 2, one line
    naming the choices), never a traceback or a half-started sweep."""

    @pytest.mark.parametrize("argv", [
        ["figures", "--benchmarks", "NOPE", "--scale", "tiny"],
        ["sweep", "--benchmarks", "MM,NOPE"],
        ["validate", "--benchmarks", "NOPE"],
        ["sweep", "--benchmarks", "MM", "--engines", "nlp,bogus"],
        ["run", "MM+NOPE"],
    ])
    def test_unknown_name_is_a_usage_error(self, argv, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert "unknown" in message and "choose from" in message
        assert "Traceback" not in message
        assert list(tmp_path.iterdir()) == []  # no cache or bundle

    def test_one_corun_name_is_a_config_error(self, tmp_path, capsys,
                                              monkeypatch):
        """A co-run flag on a cell naming one kernel cannot act, so it is
        refused before anything runs."""
        monkeypatch.chdir(tmp_path)
        assert main(["run", "MM", "--alloc-policy", "spatial"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error: ")
        assert "A+B" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_corun_applies_alloc_policy(self, capsys):
        """``repro run A+B --alloc-policy P`` simulates under P: its
        cycles row and per-kernel footer are the co-run's own."""
        from repro.config import small_config
        from repro.exec.cache import make_key
        from repro.exec.runner import build
        from repro.sim.multi import simulate_corun
        from repro.workloads import Scale

        cycles = {}
        for policy in ("spatial", "leftover"):
            key = make_key("MRQ+MM", "none", scale=Scale.TINY,
                           config=small_config().with_multi(
                               alloc_policy=policy))
            cycles[policy] = simulate_corun(
                [build(b, Scale.TINY) for b in ("MRQ", "MM")],
                key.config).cycles
        assert cycles["spatial"] != cycles["leftover"]
        assert main(["run", "mrq+sgemm", "--engine", "none", "--scale",
                     "tiny", "--alloc-policy", "spatial"]) == 0
        out = capsys.readouterr().out.splitlines()
        row, = [line.split() for line in out
                if line.split()[:1] == ["cycles"]]
        assert row[1:] == [str(cycles["spatial"])] * 2
        assert "MRQ+MM @ tiny via none [spatial]" in out
        footer = out[-1].split()
        assert footer[:3] == ["total", "cycles", str(cycles["spatial"])]
        assert footer[3] == "ANTT" and footer[-1] == "spatial)"

    def test_lists_accept_aliases_and_corun_names(self):
        p = build_parser()
        assert p.parse_args(["figures", "--benchmarks", "sgemm,cp"]
                            ).benchmarks == ["MM", "CP"]
        assert p.parse_args(["sweep", "--benchmarks", "mrq+sgemm"]
                            ).benchmarks == ["MRQ+MM"]
        assert p.parse_args(["run", "mrq+sgemm"]).bench == "MRQ+MM"
        sweep = p.parse_args(["sweep"])
        assert sweep.benchmarks is None  # "all 16", resolved by the handler
        assert sweep.engines == ["intra", "inter", "mta", "nlp", "lap",
                                 "orch", "caps"]
        validate = p.parse_args(["validate", "--full-scale"])
        assert validate.benchmarks is None and validate.full_scale

    def test_unknown_engine_through_the_api_fails_once_as_permanent(
            self, tmp_path):
        from repro.analysis import run_sweep
        from repro.config import test_config
        from repro.errors import ConfigError, FailureKind
        from repro.workloads import Scale

        report = run_sweep(["MM"], ("none", "bogus"), config=test_config(),
                           scale=Scale.TINY, cache_root=tmp_path)
        assert list(report.results) == [("MM", "none")]
        (failure,) = report.failures.values()
        assert isinstance(failure.error, ConfigError)
        assert failure.kind is FailureKind.PERMANENT
        assert failure.attempts == 1


class TestPathFlags:
    """A path flag the CLI cannot use is one ``configuration error``
    line and exit 2, raised before any cell runs — never a traceback
    after the first cell has simulated."""

    @pytest.fixture(autouse=True)
    def keep_engine(self):
        from repro.analysis import driver

        saved = driver.get_engine()
        yield
        driver.set_engine(saved)

    @pytest.fixture
    def no_cell_runs(self, monkeypatch):
        from repro.exec import runner

        def simulated(*args, **kwargs):
            raise AssertionError("a cell ran before the path was checked")

        monkeypatch.setattr(runner, "_worker", simulated)

    def test_events_log_creates_its_directory(self, tmp_path, capsys):
        from repro.exec import read_events

        log = tmp_path / "nope" / "ev.jsonl"
        assert main(["run", "CP", "--scale", "tiny",
                     "--events-log", str(log)]) == 0
        assert "finished" in [e.kind for e in read_events(log)]

    @pytest.mark.parametrize("flag, argv", [
        ("--cache", ["run", "CP", "--scale", "tiny", "--cache", "{file}"]),
        ("--events-log", ["run", "CP", "--scale", "tiny",
                          "--events-log", "{file}/ev.jsonl"]),
        ("--events-log", ["run", "CP", "--scale", "tiny",
                          "--events-log", "{dir}"]),
        ("--out", ["figures", "--scale", "tiny", "--benchmarks", "CP",
                   "--out", "{file}"]),
    ], ids=["cache-is-a-file", "events-log-under-a-file",
            "events-log-is-a-dir", "out-is-a-file"])
    def test_unusable_path_is_a_configuration_error(
            self, flag, argv, tmp_path, capsys, no_cell_runs):
        regular = tmp_path / "file"
        regular.write_text("not a directory")
        argv = [arg.format(file=regular, dir=tmp_path) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(f"configuration error: {flag} ")
        assert regular.read_text() == "not a directory"
