"""Benchmark of the irlsvm package. Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep|large-fit|cli-pipeline|all \
        --seed N --seconds S --trace 0|1

Each workload runs in a fresh interpreter (perfbench/worker.py) against the
sources under src/. Set-up is timed in several further fresh interpreters and
reported as its median. The report lines print every metric by name and unit,
then one JSON line with the full report; the last line is the result:
{"correct", "attempted", "failed", "metrics"}, whose metrics are the
end_to_end metrics of BENCHMARK.json with --trace 0 and its per_layer metrics
with --trace 1. Spans of a traced run are written to
.perfbench_work/spans-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "large-fit", "cli-pipeline")
SETUP_PROBES = 4  # set-up runs besides the measuring run's own
TIME_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


def percentile_summary(samples):
    """Median, the highest percentile with at least ten samples beyond it
    (None below 11 samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail_pct": None, "tail": None}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = ordered[n - 11]
    return out


def _unit(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("s_per_iteration"):
        return "s/iteration"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith(("calls_per_iterate", "overhead", "error_rate")):
        return "ratio"
    return "count"


def error_counts(rounds):
    """(operations attempted, operations failed): an operation fails when it
    exits nonzero, raises, or any check of its output finds a problem."""
    ops = [problems for r in rounds for problems in r["problems"]]
    return len(ops), sum(1 for problems in ops if problems)


def _run_worker(config, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {config['workload']} exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker for {config['workload']} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"worker for {config['workload']} printed no result") from None


def run_workload(workload, seed, seconds, trace, deadline):
    """Measure one workload in fresh interpreters; returns its report."""
    scratch = ROOT / ".perfbench_work"
    work = scratch / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    base = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "root": str(ROOT)}
    try:
        setups = []
        if not trace:
            for k in range(SETUP_PROBES):
                probe = _run_worker({**base, "mode": "setup", "work": str(work / f"probe{k}")}, deadline)
                setups.append(probe["setup_s"])
        spans_path = scratch / f"spans-{workload}-seed{seed}.jsonl"
        measure = {**base, "mode": "measure", "work": str(work / "run"), "spans_path": str(spans_path)}
        result = _run_worker(measure, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result["setup_s"])

    rounds = result["rounds"]
    all_rounds = rounds + result.get("traced_rounds", [])
    attempted, failed = error_counts(all_rounds)
    verbs = sorted({verb for r in rounds for verb in r["verbs"]})
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    timings = {"setup_s": percentile_summary(setups), "wall_s": percentile_summary([r["wall_s"] for r in rounds])}
    for verb in verbs:
        e2e[f"{verb}_s"] = statistics.median(r["verbs"][verb] for r in rounds)
        timings[f"{verb}_s"] = percentile_summary([r["verbs"][verb] for r in rounds])
        timings[f"{verb}_call_s"] = percentile_summary([s for r in rounds for v, s in r["op_seconds"] if v == verb])
    e2e["error_rate"] = failed / attempted
    report = {
        "workload": workload,
        "seed": seed,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in all_rounds for problems in r["problems"] for p in problems][:20],
        "end_to_end": {name: {"value": v, "unit": _unit(name)} for name, v in e2e.items()},
        "timings": timings,
        "setup": {k: result[k] for k in ("import_s", "inputs_s")},
        "environment": result["environment"],
    }
    if trace:
        report["layers"] = {name: {"value": v, "unit": _unit(name)} for name, v in result["layers"].items()}
        report["breakdown_s"] = result["breakdown"]
        report["traced_rounds"] = len(result["traced_rounds"])
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    return report


def contract_metrics(kind):
    """(name, unit) of each metric BENCHMARK.json lists under kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec[kind]]


def print_report(report):
    print(f"== {report['workload']} (seed {report['seed']}, {report['rounds']} rounds)")
    for name, metric in report["end_to_end"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, t in report["timings"].items():
        tail = f", p{t['tail_pct']:.1f} {t['tail']:.6g} s" if t["tail"] is not None else ""
        print(f"{name}: median {t['median']:.6g} s{tail}, n = {t['n']}")
    for name, metric in report.get("layers", {}).items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for op, layers in report.get("breakdown_s", {}).items():
        shares = ", ".join(f"{layer} {seconds:.4g}" for layer, seconds in layers.items())
        print(f"self time in {op} calls per round (s): {shares}")
    for problem in report["problems"]:
        print(f"FAILED {problem}")
    print(json.dumps({"report": report}))


def result_line(report, trace):
    if trace:
        source, kind = report["layers"], "per_layer"
    else:
        source, kind = report["end_to_end"], "end_to_end"
    metrics = {}
    for name, unit in contract_metrics(kind):
        if name not in source:
            raise BenchError(f"{report['workload']} did not produce metric {name}")
        metrics[name] = {"value": source[name]["value"], "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "irlsvm" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} has no src/irlsvm or no BENCHMARK.json; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = []
        for name in names:
            # --workload all runs longer than one workload's time limit
            limit = deadline if len(names) == 1 else time.monotonic() + TIME_LIMIT_S
            reports.append(run_workload(name, args.seed, args.seconds, args.trace, limit))
            print_report(reports[-1])
        metrics = {}
        for report in reports:
            prefix = "" if len(reports) == 1 else f"{report['workload']}."
            metrics.update({prefix + k: v for k, v in result_line(report, args.trace).items()})
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
