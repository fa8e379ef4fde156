"""One declaration per serve knob and per stats field, checked.

A ``repro serve`` / ``repro fleet`` knob is a field of
:class:`~repro.config.ServeConfig` / :class:`~repro.config.RouterConfig`
and nothing else: the CLI generates its flag from the field and builds
the config back from the parsed flags.  A stats field is a field of a
:mod:`repro.serve.stats` block.  The docs tables name both, and these
tests hold the tables to the declarations in both directions.
"""

import dataclasses
import pathlib
import re

import pytest

from repro.cli import build_parser, config_from_args
from repro.config import RouterConfig, ServeConfig
from repro.serve import protocol
from tests.serve.test_stats_schema import all_blocks

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"

#: Flags of `serve` / `fleet` that are not config fields (besides the
#: `--chaos-*` group, which FaultPlan declares).
NON_CONFIG = {"--jobs", "--cache", "--no-disk-cache", "--events-log",
              "--backends", "--runtime-dir", "--restart-budget"}

COMMANDS = {"serve": (ServeConfig, "serving.md"),
            "fleet": (RouterConfig, "fleet.md")}


def flags(command):
    """``{flag: argparse action}`` of one subcommand, --help excluded."""
    (subparsers,) = [action for action in build_parser()._actions
                     if action.dest == "command"]
    return {action.option_strings[0]: action
            for action in subparsers.choices[command]._actions
            if action.option_strings and action.dest != "help"}


def config_flags(command):
    cls, _ = COMMANDS[command]
    names = {spec.name for spec in dataclasses.fields(cls)}
    return {flag: action for flag, action in flags(command).items()
            if action.dest in names}


def tables(doc, header):
    """Rows (lists of cells) of every table in ``doc`` under ``header``."""
    rows, inside = [], False
    for line in (DOCS / doc).read_text().splitlines():
        if not line.startswith("|"):
            inside = False
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells == header:
            inside = True
        elif inside and not set(line) <= set("|- "):
            rows.append(cells)
    return rows


def ticked(cell):
    return re.findall(r"`([^`]+)`", cell)


def shown(action):
    """A flag's default as the docs tables write it."""
    return "none" if action.default is None else str(action.default)


@pytest.mark.parametrize("command", sorted(COMMANDS))
class TestFlags:
    def test_every_flag_is_a_field_or_a_named_exception(self, command):
        cls, _ = COMMANDS[command]
        fields = {spec.name: spec for spec in dataclasses.fields(cls)}
        for flag, action in flags(command).items():
            assert (action.dest in fields or flag in NON_CONFIG
                    or flag.startswith("--chaos-")), flag
        # ... and every field that declares a flag has one.
        declared = {name for name, spec in fields.items()
                    if "help" in spec.metadata}
        assert {a.dest for a in config_flags(command).values()} == declared

    def test_default_flags_build_the_default_config(self, command, tmp_path):
        cls, _ = COMMANDS[command]
        path = str(tmp_path / "x.sock")
        args = build_parser().parse_args([command, "--socket", path])
        assert config_from_args(cls, args) == cls(socket_path=path)


def test_flags_reach_their_fields(tmp_path):
    args = build_parser().parse_args([
        "serve", "--socket", str(tmp_path), "--queue-limit", "5",
        "--batch-max", "7", "--memcache-entries", "9",
        "--memcache-bytes", "1M", "--default-deadline", "3"])
    assert config_from_args(ServeConfig, args) == ServeConfig(
        socket_path=str(tmp_path), queue_limit=5, batch_max=7,
        memcache_entries=9, memcache_bytes=1 << 20, default_deadline_s=3.0)
    args = build_parser().parse_args(
        ["fleet", "--probe-interval", "0.1", "--forward-timeout", "9",
         "--failure-threshold", "2", "--reset-timeout", "0.5"])
    assert config_from_args(RouterConfig, args) == RouterConfig(
        probe_interval_s=0.1, forward_timeout_s=9.0, failure_threshold=2,
        reset_timeout_s=0.5)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_knob_table_matches_the_config(command):
    """Each row of the doc's knob table names one flag: a config field's
    with its default, or one of the named non-config flags; every
    config field's flag has a row."""
    _, doc = COMMANDS[command]
    expected = config_flags(command)
    documented = {}
    for row in tables(doc, ["flag", "default", "controls"]):
        (flag,) = ticked(row[0])
        assert flag in expected or flag in NON_CONFIG, (doc, flag)
        documented[flag] = row[1]
    assert {flag: documented.get(flag) for flag in expected} == {
        flag: shown(action) for flag, action in expected.items()}


def test_stats_tables_match_the_blocks():
    """Every stats block has one row in serving.md or fleet.md listing
    exactly its fields, and every row is a block."""
    documented = {}
    for doc in ("serving.md", "fleet.md"):
        for row in tables(doc, ["block", "payload key", "fields"]):
            (name,) = ticked(row[0])
            assert name not in documented, name
            documented[name] = set(ticked(row[2]))
    assert documented == {
        block.__name__: {spec.name for spec in dataclasses.fields(block)}
        for block in all_blocks()}


def test_source_values_are_documented():
    text = " ".join((DOCS / "serving.md").read_text().split())
    (listing,) = re.findall(r"takes the values of `protocol\.SOURCES`:"
                            r"([^.]*)\.", text)
    assert ticked(listing) == list(protocol.SOURCES)



class TestEngineNames:
    """The engine names a user may pick are declared once, in
    :mod:`repro.prefetch.factory`; the internal cells the analysis
    layer names (Figure 1's trace, Section I's NN kernel) stay out of
    both the CLI and the protocol."""

    def test_cli_and_protocol_share_one_declaration(self):
        from repro import cli
        from repro.prefetch import factory

        assert cli.ENGINE_CHOICES is factory.ENGINE_CHOICES
        assert protocol.ENGINE_CHOICES is factory.ENGINE_CHOICES
        assert factory.TRACE not in factory.ENGINE_CHOICES

    @pytest.mark.parametrize("argv", [
        ["run", "MM", "--engine", "trace"],
        ["run", "NN"],
    ])
    def test_run_rejects_internal_cells(self, argv, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(argv + ["--scale", "tiny"])
        assert exit_.value.code == 2
        assert "repro run: error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [
        {"engine": "trace"},
        {"benchmark": "NN"},
    ])
    def test_protocol_rejects_internal_cells(self, field):
        from repro.errors import BadRequestError

        payload = dict({"v": protocol.PROTOCOL_VERSION, "id": "t",
                        "op": "simulate", "benchmark": "MM"}, **field)
        with pytest.raises(BadRequestError) as err:
            protocol.parse_request(payload)
        assert err.value.code == "bad_request"
