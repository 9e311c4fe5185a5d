"""Self-tests of the benchmark's gate and tracing.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a checkout; takes about fifteen seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

_, workloads, _ = run.setup("depth-search", 0)   # puts the checkout's src first

import layertrace  # noqa: E402
from lcslab import almostlaw, girth, magnus, search  # noqa: E402


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_wrong_expectation_trips_the_gate(monkeypatch, capsys):
    monkeypatch.setitem(workloads.EXPECTED["kernel-girth"],
                        "girth derived Klein to 14", ("found", 6, "AABBab"))
    code = run.main(["--workload", "kernel-girth", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 8
    assert "FAILED girth derived Klein to 14" in out


def test_traced_leaves_and_pushes_match_the_engine():
    oracle = search.build_oracle("lcs:4")
    spec = search.SearchSpec("lcs:4", 14, search.engine_flags(oracle))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        outcome, stats = search.search_min(spec)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert outcome[0] == 14
    assert stats.tested == 27164 == metrics["search.leaves"]
    assert tracer.leaf_counts_agree()
    assert metrics["magnus.walker_ops"] == 375339


def test_uninstall_restores_originals_and_untraced_calls_reach_them():
    originals = [(search, "search_min"), (girth, "search_min"),
                 (almostlaw, "search_min"), (girth, "verify_minimum"),
                 (magnus, "expand"), (almostlaw, "batch_evaluate")]
    before_objects = [getattr(mod, name) for mod, name in originals]
    depth_make_walker = search.DepthOracle.make_walker
    before = layertrace.binding_snapshot()
    tracer = layertrace.Tracer()
    tracer.install()
    assert search.DepthOracle.make_walker is not depth_make_walker
    assert all(getattr(mod, name) is not obj
               for (mod, name), obj in zip(originals, before_objects))
    tracer.uninstall()
    assert layertrace.binding_snapshot() == before
    assert search.DepthOracle.make_walker is depth_make_walker
    assert all(getattr(mod, name) is obj
               for (mod, name), obj in zip(originals, before_objects))
    # every shim records into its tracer, so an untraced call that reached a
    # shim would leave a span or a count behind
    for name in run.WORKLOADS:
        workloads.warm_up(name)
    assert tracer.spans == []
    assert not tracer.cells and not tracer.counts


def test_operation_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            result = run.run_pass(workloads, "kernel-girth", {}, tracer)
        finally:
            tracer.uninstall()
        assert not result["failures"]
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items()
                       if layertrace.unit(k) == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["search.leaves"] > 0 and counts[0]["quotients.derived_ops"] > 0


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "depth-search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
