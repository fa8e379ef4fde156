"""The import graph as a checked property (no wall clock).

A command imports only what it runs: ``repro request`` is a socket
client and must not load the simulator, the exec runner or the server
tier; ``repro run`` must not load the serve tier.  Every probe runs in
a fresh interpreter and reads ``sys.modules`` — what was *loaded* is
the property, not how long it took (``docs/architecture.md``, "Import
graph and cold start").
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.exec import read_events

SRC = pathlib.Path(repro.__file__).resolve().parent.parent

#: What a command that simulates nothing must never load.
SIMULATOR_SIDE = (
    "repro.sim", "repro.mem", "repro.core", "repro.guard", "repro.obs",
    "repro.analysis", "repro.exec.runner", "repro.workloads.suite",
    "repro.serve.server", "repro.serve.scheduler", "repro.serve.fleet",
    "multiprocessing",
)

#: What a `figures` run whose every cell is cached must never load: the
#: run loop, the memory system, the guards a simulation arms, the pool.
WARM_NEVER = (
    "repro.sim.gpu", "repro.sim.fastcore", "repro.sim.sm", "repro.mem",
    "repro.guard.invariants", "repro.guard.watchdog", "multiprocessing",
)

PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py"))


def run_child(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its last stdout line."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(code: str) -> set:
    """``sys.modules`` of a fresh interpreter once ``code`` has run."""
    return set(json.loads(run_child(
        code + "\nimport json, sys; print(json.dumps(sorted(sys.modules)))")))


def under(modules, *prefixes):
    return sorted(m for m in modules for p in prefixes
                  if m == p or m.startswith(p + "."))


class TestDemandDrivenImports:
    def test_import_repro_loads_no_submodule_but_the_helper(self):
        loaded = loaded_after("import repro")
        assert under(loaded, "repro") == ["repro", "repro._lazy"]

    def test_parser_build_loads_no_simulator_and_no_asyncio(self):
        loaded = loaded_after("import repro.cli; repro.cli.build_parser()")
        assert under(loaded, *SIMULATOR_SIDE, "concurrent.futures",
                     "asyncio", "repro.serve") == []

    def test_request_is_a_socket_client(self, tmp_path):
        loaded = loaded_after(
            "import repro.cli\n"
            "rc = repro.cli.main(['request', '--ping', '--retries', '1', "
            f"'--socket', {str(tmp_path / 'absent.sock')!r}])\n"
            "assert rc == repro.cli.EXIT_UNAVAILABLE, rc")
        # asyncio itself imports the concurrent.futures base; the process
        # pool is the part only exec.runner's parallel path may pull in.
        assert under(loaded, *SIMULATOR_SIDE,
                     "concurrent.futures.process") == []
        assert "repro.serve.client" in loaded

    def test_run_loads_no_serve_tier(self):
        loaded = loaded_after(
            "import repro.cli\n"
            "assert repro.cli.main(['run', 'MM', '--scale', 'tiny']) == 0")
        assert under(loaded, "repro.serve", "asyncio", "multiprocessing",
                     "concurrent.futures") == []
        assert "repro.sim.gpu" in loaded

    def test_warm_figures_loads_no_simulator(self, tmp_path):
        """Every simulation `figures` performs is a cell, so a rerun on
        a warm cache reads them all and loads none of the simulator."""
        def figures(run, jobs):
            return (
                "import repro.cli\n"
                "assert repro.cli.main(['figures', '--benchmarks', 'CP,SCN',"
                " '--scale', 'tiny', '--jobs', '%d', '--cache', %r,"
                " '--events-log', %r, '--out', %r]) == 0"
                % (jobs, str(tmp_path / "cache"),
                   str(tmp_path / f"{run}.jsonl"), str(tmp_path / run)))

        run_child(figures("cold", 2) + "\nprint('ok')")
        loaded = loaded_after(figures("warm", 2))
        assert under(loaded, *WARM_NEVER) == []
        warm = [e.kind for e in read_events(tmp_path / "warm.jsonl")]
        assert warm.count("started") == 0 and "cache_hit" in warm
        assert ((tmp_path / "warm" / "EXPERIMENTS.md").read_bytes()
                == (tmp_path / "cold" / "EXPERIMENTS.md").read_bytes())


def test_every_module_imports_first():
    """No module relies on a package ``__init__`` having imported its
    siblings in a lucky order: each one is imported with every
    ``repro*`` entry purged from ``sys.modules`` beforehand."""
    names = sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name not in ("__init__.py", "__main__.py"))
    assert "repro.guard.invariants" in names and "repro.cli" in names
    failures = json.loads(run_child(
        "import importlib, json, sys\n"
        "failures = {}\n"
        f"for name in {names + PACKAGES!r}:\n"
        "    for loaded in [m for m in sys.modules if m.split('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception as exc:\n"
        "        failures[name] = repr(exc)\n"
        "print(json.dumps(failures))"))
    assert failures == {}


@pytest.mark.parametrize("package", PACKAGES)
def test_facade_parity(package):
    """A façade's table is its whole public surface: every name
    resolves to the object its home module holds, shows in ``dir()``,
    survives a star-import, and a typo is an ``AttributeError``."""
    pkg = importlib.import_module(package)
    assert pkg.__all__ and len(set(pkg.__all__)) == len(pkg.__all__)
    exports = getattr(pkg, "_EXPORTS", None)
    if exports is not None:  # a lazy table (obs also keeps its hub code)
        homes = {name: home for home, names in exports.items()
                 for name in names}
        assert set(homes) <= set(pkg.__all__)
        for name, home in homes.items():
            assert getattr(pkg, name) is getattr(
                importlib.import_module(home), name), (package, name)
    starred: dict = {}
    exec(f"from {package} import *", starred)
    for name in pkg.__all__:
        assert name in dir(pkg), (package, name)
        assert starred[name] is getattr(pkg, name), (package, name)
    with pytest.raises(AttributeError, match=package.replace(".", r"\.")):
        getattr(pkg, "no_such_name")


def test_documented_entry_points_resolve_through_the_facades():
    from repro import fermi_config, simulate
    from repro.exec import runner
    from repro.serve import protocol
    from repro.workloads import Scale, build

    assert callable(fermi_config) and callable(simulate) and callable(build)
    assert Scale("tiny") is Scale.TINY
    assert runner.__name__ == "repro.exec.runner"
    assert protocol.__name__ == "repro.serve.protocol"
    assert repro.SimResult is importlib.import_module("repro.result").SimResult
    # Resolved once, then a plain module-dict hit (nothing lazy left on
    # a hot path): the name now lives in the package namespace.
    assert "simulate" in vars(repro)


def test_results_have_one_home_and_still_travel(tmp_path):
    """``repro.result`` defines the result types and their wire form
    once; the old homes re-export them, and a result still crosses a
    process pool and the disk cache byte-for-byte."""
    from repro import result as home
    from repro.config import test_config
    from repro.exec import (ExecutionEngine, ResultCache, cache,
                            execute_cell, make_key, result_bytes)
    from repro.sim import gpu, sm
    from repro.workloads import Scale

    assert gpu.SimResult is cache.SimResult is home.SimResult
    assert sm.SMStats is home.SMStats
    assert cache.serialize_result is home.serialize_result
    assert cache.deserialize_result is home.deserialize_result

    keys = [make_key("SCN", engine, config=test_config(), scale=Scale.TINY)
            for engine in ("none", "nlp")]
    pooled = ExecutionEngine(jobs=2, cache=ResultCache(tmp_path)).run_many(keys)
    reread = ExecutionEngine(cache=ResultCache(tmp_path))  # empty memo
    for key in keys:
        direct = result_bytes(execute_cell(key))
        assert type(pooled[key]).__module__ == "repro.result"
        assert result_bytes(pooled[key]) == direct
        assert result_bytes(reread.run(key)) == direct
    assert reread.cache.hits == len(keys)
