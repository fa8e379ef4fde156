"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``.

Not part of tier-1 (``testpaths`` does not name this directory): they
check the harness, not the program it measures.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]

import compare          # noqa: E402
import harness          # noqa: E402
import run              # noqa: E402
import serve_mix        # noqa: E402
import sim_cells        # noqa: E402
import sweep_exec       # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ------------------------------------------------------------- seeding
def test_same_seed_same_trace_other_seed_other_trace():
    blocks = [serve_mix.block_rounds(7, b) for b in range(3)]
    assert blocks == [serve_mix.block_rounds(7, b) for b in range(3)]
    assert blocks[0] != serve_mix.block_rounds(8, 0)
    assert blocks[0] != blocks[1]


def test_block_has_its_exact_share_of_sweep_rounds_and_fresh_cells():
    seen = set()
    for block in range(4):
        rounds = serve_mix.block_rounds(3, block)
        assert len(rounds) == serve_mix.ROUNDS_PER_BLOCK
        sweeps = [specs for specs in rounds if specs[0][2] is not None]
        assert len(sweeps) == serve_mix.SWEEP_ROUNDS_PER_BLOCK
        for specs in sweeps:
            assert len(set(map(json.dumps, specs))) == 1   # shared cell
            cell = json.dumps(specs[0], sort_keys=True)
            assert cell not in seen                         # never repeats
            seen.add(cell)
    for specs in serve_mix.block_rounds(3, 0):
        for spec in specs:
            serve_mix.protocol.parse_request(serve_mix.simulate_payload(spec))


def test_other_workloads_take_their_order_from_the_seed():
    orders = {sweep_exec.benchmarks_for(seed) for seed in range(8)}
    assert len(orders) == 2
    assert all(o.startswith("CP,SCN,") for o in orders)
    for workload in ("sim-issuebound", "sim-membound"):
        labels = [c.label for c in sim_cells.cells_of(workload, smoke=False)]
        assert len(labels) == len(set(labels))


# ---------------------------------------------------------- statistics
def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert harness.tail_percentile(list(range(2400)))[0] == 99.0
    assert harness.tail_percentile(list(range(1000)))[0] == 99.0
    assert harness.tail_percentile(list(range(900)))[0] == 95.0
    assert harness.tail_percentile(list(range(10000)))[0] == 99.9
    assert harness.tail_percentile(list(range(21)))[0] == 50.0
    assert harness.tail_percentile([3.0, 9.0, 4.0]) == (100.0, 9.0)
    for n in (21, 150, 900, 1000, 2400, 10000):
        p, value = harness.tail_percentile(list(range(n)))
        assert sum(1 for v in range(n) if v > value) >= 10
        higher = [q for q in harness.TAIL_PERCENTILES if q > p]
        assert all(sum(1 for v in range(n)
                       if v > harness.percentile(list(range(n)), q)) < 10
                   for q in higher)


def test_self_time_is_the_span_minus_its_children():
    tracer = harness.Tracer(True)
    outer = tracer.record("outer", 10.0, 20.0)
    tracer.record("inner", 11.0, 14.0, parent=outer)
    tracer.record("inner", 15.0, 16.0, parent=outer)
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}
    off = harness.Tracer(False)
    with off.span("ignored"):
        pass
    off.wrap(harness, "median", "ignored")
    assert off.spans == [] and harness.median([1, 3]) == 2


def test_wrap_records_spans_around_calls_and_restores():
    tracer = harness.Tracer(True)
    original = harness.median
    tracer.wrap(harness, "median", "stats.median")
    try:
        with tracer.span("caller"):
            assert harness.median([1, 2, 6]) == 2
    finally:
        tracer.unwrap_all()
    assert harness.median is original
    names = [(s["name"], s["parent"]) for s in tracer.spans]
    assert names == [("caller", None), ("stats.median", 0)]


# ------------------------------------------------------------- compare
def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    same = [v * 1.01 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "gain"
    assert compare.verdict(parent, faster, "higher", 0.1) == "regression"
    assert compare.verdict(parent, slower, "lower", 0.1) == "regression"
    assert compare.verdict(parent, same, "lower", 0.1) == "no-regression"
    # Spread wider than the bound and no clean win: cannot tell.
    wide = [10.0, 14.0, 8.0, 13.0, 7.5, 12.0, 9.0, 15.0, 8.5, 11.0]
    shuffled = wide[3:] + wide[:3]
    assert compare.verdict(wide, shuffled, "lower", 0.1) == "unresolved"
    # ... unless every run of the change beats every run of the parent;
    # inside the parent's own spread that is still not a gain to claim.
    assert compare.verdict(wide, [7.0] * 10, "lower", 0.1) == "no-regression"
    assert compare.verdict(wide, [2.0] * 10, "lower", 0.1) == "gain"
    # A win in most pairs but inside the parent's own spread is no gain.
    nudged = [v - 0.01 for v in wide]
    assert compare.verdict(wide, nudged, "lower", 0.1) == "unresolved"


def test_compare_reads_run_records(tmp_path):
    def records(scale):
        return [{"workload": "sim-issuebound", "trace": 0,
                 "result": {"metrics": {
                     "wall_s": {"value": scale * (2.0 + i / 100), "unit": "s"},
                 }}} for i in range(10)]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(records(1.0)))
    b.write_text(json.dumps(records(1.5)))
    rows = compare.compare(compare.load_runs(a), compare.load_runs(b),
                           DECLARATION)
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("sim-issuebound", "wall_s", "regression")]
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a)]) == 0


# --------------------------------------------------------- declaration
def test_declaration_meets_the_contract():
    assert set(DECLARATION) == {"command", "paths", "run_seconds",
                                "workloads", "end_to_end", "per_layer"}
    assert DECLARATION["paths"] == ["perfbench"]
    assert DECLARATION["command"] == ["python3", "perfbench/run.py"]
    assert 1 <= DECLARATION["run_seconds"] <= 60
    workloads = DECLARATION["workloads"]
    end_to_end = DECLARATION["end_to_end"]
    per_layer = DECLARATION["per_layer"]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [e["name"] for e in workloads + end_to_end + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert [w["name"] for w in workloads] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in workloads)
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert metric["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in end_to_end)
    runs = 4 + 22 * len(workloads)
    assert runs * (DECLARATION["run_seconds"] + 10) <= 3420


# ------------------------------------------------------------ the runs
def _result_lines(stdout: str):
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith('{"correct"')]


def test_smoke_runs_every_workload_and_prints_only_declared_metrics():
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert time.monotonic() - started < 30
    results = _result_lines(done.stdout)
    assert len(results) == len(DECLARATION["workloads"])
    declared = {m["name"]: m["unit"] for m in DECLARATION["end_to_end"]}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {n: e["unit"] for n, e in result["metrics"].items()} \
            == declared
        assert all(e["value"] > 0 for e in result["metrics"].values())
    assert json.loads(done.stdout.splitlines()[-1]) == results[-1]
    assert not harness.TMP_PARENT.exists()


def test_traced_smoke_prints_every_layer_metric():
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--smoke", "--traced",
         "--workload", "sim-issuebound"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    (result,) = _result_lines(done.stdout)
    assert list(result["metrics"]) == [m["name"]
                                       for m in DECLARATION["per_layer"]]
    assert result["metrics"]["host.trace_overhead"]["value"] > 0
    assert result["metrics"]["sim.multi.antt"]["value"] > 0
    assert result["metrics"]["serve.src.memcache"]["value"] == 0


ORPHAN_SCRIPT = """
import subprocess, sys
import harness
assert harness.adopt_orphans()
# A child that leaves a grandchild behind: one that ends on its own
# (grace 5 s) or one that never would (grace 0.2 s, so it is killed).
child = ("import subprocess, sys; print(subprocess.Popen([sys.executable, "
         "'-c', 'import sys, time; time.sleep(float(sys.argv[1]))', "
         "sys.argv[1]], stdout=subprocess.DEVNULL).pid)")
pid = int(subprocess.run([sys.executable, "-c", child, sys.argv[1]],
                         stdout=subprocess.PIPE, text=True).stdout)
killed = harness.reap_descendants(float(sys.argv[2]))
try:
    open(f"/proc/{pid}/stat")
except OSError:
    print("gone", killed)
"""


def test_orphaned_descendants_are_waited_for_or_killed():
    for sleep_s, grace_s, verdict in (("0.3", "5", "gone 0"),
                                      ("60", "0.2", "gone 1")):
        done = subprocess.run(
            [sys.executable, "-c", ORPHAN_SCRIPT, sleep_s, grace_s],
            cwd=PERFBENCH, capture_output=True, text=True, timeout=30)
        assert done.stdout.strip() == verdict, done.stdout + done.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-exec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not _result_lines(done.stdout)
