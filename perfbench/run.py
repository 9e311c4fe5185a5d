"""lcs-lab benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload depth-search --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports ``lcslab`` from its ``src``.
A closed loop with a single client sends the workload's queries one after
another (``workers=1``), times each pass over them, and checks every answer
against the expected-answer table after timing.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  The exit code is 0
only when every answer matched; it is 2, with no result printed, when the
checkout holds no ``lcslab`` source.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("depth-search", "kernel-girth", "family-certify")
SETUP_REPEATS = 7          # set-ups per run: this process plus six probes
PROBE_TIMEOUT_S = 60


class MissingProgram(RuntimeError):
    """The checkout holds no lcslab package to benchmark."""


def setup(workload: str, seed: int):
    """Import lcslab, generate the inputs and warm up; returns the seconds
    taken, the workloads module and the inputs."""
    t0 = time.perf_counter()
    if not (SRC / "lcslab" / "__init__.py").is_file():
        raise MissingProgram(f"no lcslab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    lcslab = importlib.import_module("lcslab")
    if Path(lcslab.__file__).resolve().parent != SRC / "lcslab":
        raise MissingProgram(f"lcslab imported from {lcslab.__file__}, not {SRC}")
    workloads = importlib.import_module("workloads")
    inputs = workloads.make_inputs(workload, seed)
    workloads.warm_up(workload)
    return time.perf_counter() - t0, workloads, inputs


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter, so the import is cold
    in the same way as in this process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workloads, workload: str, inputs: dict, tracer=None) -> dict:
    """One timed pass over the workload's queries, then the answer checks."""
    queries = workloads.WORKLOADS[workload]
    expected = workloads.EXPECTED[workload]
    state = {"inputs": inputs}
    raw, seconds, errors = {}, {}, {}
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        tq = time.perf_counter()
        if tracer is not None:
            tracer.query = i
            tracer.open("query")
        try:
            raw[q.name] = q.run(state)
        except Exception as ex:  # a raising query is a failed query
            errors[q.name] = f"{type(ex).__name__}: {ex}"
        finally:
            if tracer is not None:
                tracer.close()
        seconds[q.name] = time.perf_counter() - tq
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    del state  # frees the level-14 family before the checks
    answers, failures = {}, {}
    for q in queries:
        if q.name in errors:
            failures[q.name] = errors[q.name]
            continue
        try:
            answers[q.name] = q.settle(raw[q.name]) if q.settle else raw[q.name]
        except Exception as ex:
            failures[q.name] = f"check raised {type(ex).__name__}: {ex}"
            continue
        if answers[q.name] != expected[q.name]:
            failures[q.name] = (f"answer {answers[q.name]!r} != expected "
                                f"{expected[q.name]!r}")
    return {"wall_s": wall, "cpu_s": cpu, "query_s": seconds,
            "answers": {k: repr(v) for k, v in answers.items()},
            "failures": failures, "attempted": len(queries)}


def _timed_passes(seconds: float, one_pass) -> list:
    """Passes until the next one would end after `seconds`; at least one."""
    passes, t0 = [], time.perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: the checkout is not a git repository"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as ex:
        return f"unknown: {ex}"
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(workloads, workload: str, seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "git_commit": _git_commit(),
            "workers": 1,
            "loop": "closed, one client, sequential queries",
            "workload": workload,
            "seed": seed,
            "seed_drives": workloads.SEED_DRIVES[workload]}


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(workloads, workload: str, seed: int, inputs: dict,
               setup_s: float, seconds: float) -> dict:
    setups = [setup_s]

    def one_pass(i):
        p = run_pass(workloads, workload, inputs)
        # one set-up probe after each pass spreads them over the run, so a
        # slow spell of a shared machine does not hit all of them at once
        if len(setups) < SETUP_REPEATS:
            setups.append(probe_setup(workload, seed))
        return p

    passes = _timed_passes(seconds, one_pass)
    while len(setups) < SETUP_REPEATS:
        setups.append(probe_setup(workload, seed))
    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    summary = [
        f"wall_s       {metrics['wall_s']['value']:.4f} s   median of "
        f"{len(walls)} passes, quartiles {_fmt(_quartiles(walls))}",
        f"cpu_s        {metrics['cpu_s']['value']:.4f} s   median of "
        f"{len(cpus)} passes, quartiles {_fmt(_quartiles(cpus))}",
        f"setup_s      {metrics['setup_s']['value']:.4f} s   median of "
        f"{len(setups)} set-ups, quartiles {_fmt(_quartiles(setups))}",
        f"peak_rss_mb  {rss_mb:.1f} MB  peak resident memory of this process",
        f"failed_frac  {failed / attempted:.4f} fraction   "
        f"{failed} failed of {attempted} queries attempted",
    ]
    return {"metrics": metrics, "summary": summary, "passes": passes,
            "setups_s": setups, "attempted": attempted, "failed": failed,
            "consistent": True}


def traced(workloads, workload: str, inputs: dict, seconds: float) -> dict:
    """Untraced and traced passes alternately; per-layer metrics from the
    traced ones, tracing overhead from the two kinds' median walls."""
    import layertrace as tracing

    before = tracing.binding_snapshot()
    plain, traced_passes, layer, spans = [], [], [], []
    problems = []

    def one_pass(i):
        if i % 2 == 0:
            p = run_pass(workloads, workload, inputs)
            plain.append(p)
            return p
        tracer = tracing.Tracer()
        tracer.install()
        try:
            p = run_pass(workloads, workload, inputs, tracer)
        finally:
            tracer.uninstall()
        if tracing.binding_snapshot() != before:
            problems.append(f"pass {i}: shims not restored")
        if not tracer.leaf_counts_agree():
            problems.append(f"pass {i}: traced leaves differ from SearchStats")
        traced_passes.append(p)
        layer.append(tracer.metrics())
        spans.extend({"pass": i, "name": s[0], "start": s[1], "end": s[2],
                      "parent": s[3], "query": s[4]} for s in tracer.spans)
        return p

    passes = _timed_passes(seconds, one_pass)
    if not traced_passes:
        passes.append(one_pass(1))
    counts = [{k: v for k, v in m.items() if tracing.unit(k) == "count"}
              for m in layer]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("operation counts differ between traced passes")
    values = tracing.median_metrics(layer)
    values["trace_overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced_passes)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()}
    summary = [f"{k:38s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    summary += problems
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {"metrics": metrics, "summary": summary, "passes": passes,
            "attempted": attempted, "failed": failed, "spans": spans,
            "consistent": not problems}


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        setup_s, workloads, inputs = setup(args.workload, args.seed)
    except MissingProgram as ex:
        print(f"run.py: {ex}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(repr(setup_s))
        return 0

    prov = provenance(workloads, args.workload, args.seed)
    if args.trace:
        result = traced(workloads, args.workload, inputs, args.seconds)
    else:
        result = end_to_end(workloads, args.workload, args.seed, inputs,
                            setup_s, args.seconds)
    correct = result["failed"] == 0 and result["consistent"]

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"provenance": prov, "correct": correct,
              "metrics": result["metrics"], "passes": result["passes"],
              "setups_s": result.get("setups_s")}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(result['passes'])} passes, closed loop, one client, workers=1")
    for line in result["summary"]:
        print(line)
    for p in result["passes"]:
        for name, why in p["failures"].items():
            print(f"FAILED {name}: {why}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
