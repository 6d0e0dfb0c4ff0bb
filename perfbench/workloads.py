"""Workload definitions and the measuring loop behind worker.py.

A workload is a setup, which builds its inputs from the seed and is timed as
part of setup_s, and a round: a fixed list of operations, each one call into
irlsvm.cli.main or irlsvm.fit. Each operation is timed alone. Its output is
checked by reference.py after the round, so checks take no measured time and
the peak memory read after the first round is the program's own.

- paper-sweep: the README's reproduction protocol at n = 10^4, q = 2. Tiny
  arrays, so fixed per-iteration Python cost dominates.
- large-fit: library fits on in-memory data at n = 10^6, q = 2 and
  n = 10^5, q = 50. The per-iteration kernels dominate; no files.
- cli-pipeline: simulate, fit, sweep and predict through the CLI at
  n = 2 * 10^5, q = 2. CSV parsing and writing dominate.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy

import reference
import spans

LOSSES = ("hinge", "least-squares", "squared-hinge", "logistic")
PENALTIES = ("l2", "l1", "elastic")
LAM = MU = 0.1

PAPER_N = 10_000
PAPER_GRID = "0:0.1:0.4"
PAPER_SWEEP_FLAGS = ["--init", "zero", "--tolerance", "0", "--iterations", "50"]

LARGE_FITS = (
    ("q2", "hinge", "l2"),
    ("q2", "logistic", "l2"),
    ("q2", "squared-hinge", "elastic"),
    ("q50", "hinge", "elastic"),
    ("q50", "logistic", "l1"),
)
LARGE_Q50_MEAN = 0.2  # +-0.2 per coordinate in 50-d: Bayes accuracy 0.9214, as at q = 2

# n = 10^6 makes one round about 20 s; 2 * 10^5 keeps several rounds in a
# run while parsing stays the largest share of the fit verb
CLI_N = 200_000
CLI_SWEEP_GRID = "0.1:0.1:0.4"


def grid_values(text):
    """The CLI's inclusive start:step:end grid."""
    start, step, end = (float(p) for p in text.split(":"))
    return [start + i * step for i in range(round((end - start) / step) + 1)]


class Caller:
    """Times calls into irlsvm; with a recorder set, each call is also the
    root span of its operation."""

    def __init__(self, irlsvm):
        self.irlsvm = irlsvm
        self.recorder = None

    def _timed(self, verb, call):
        scope = self.recorder.span(f"op.{verb}", verb) if self.recorder else contextlib.nullcontext()
        with scope:
            start = time.perf_counter()
            try:
                value = call()
            except Exception as err:  # an operation that raises is a failed operation, not a crash
                value = err
            seconds = time.perf_counter() - start
        return seconds, value

    def cli(self, verb, argv):
        """(seconds, exit code or exception, captured output) of one verb."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            seconds, code = self._timed(verb, lambda: self.irlsvm.cli.main([verb, *map(str, argv)]))
        return seconds, code, out.getvalue()

    def fit(self, spec, dataset):
        return self._timed("fit", lambda: self.irlsvm.fit(spec, dataset))


def _design_bytes(rows, cols):
    return rows * (cols + 1) * 8


# ---- paper-sweep -----------------------------------------------------------


def paper_sweep_setup(irlsvm, seed, work):
    path = work / "data.csv"
    irlsvm.write_dataset_csv(irlsvm.generate_gaussian_mixture(PAPER_N, seed=seed), path)
    sizes = [{"input": "data.csv", "rows": PAPER_N, "cols": 2, "csv_bytes": path.stat().st_size,
              "design_bytes": _design_bytes(PAPER_N, 2)}]
    return {"data": path, "table": functools.cache(lambda: reference.read_dataset(path)), "sizes": sizes}


def _sweep_spec(loss, penalty, param, value):
    lam = value if param == "lambda" else (LAM if penalty == "elastic" else 0.0)
    return reference.make_spec(loss, penalty, lam=lam, mu=value if param == "mu" else 0.0)


def paper_sweep_round(caller, inputs, seed, base):
    data = inputs["data"]
    grid = grid_values(PAPER_GRID)
    ops = []
    for loss in LOSSES:
        for penalty in PENALTIES:
            param = "lambda" if penalty == "l2" else "mu"
            out = base / f"{loss}-{penalty}"
            argv = ["--loss", loss, "--penalty", penalty, f"--{param}-grid", PAPER_GRID, *PAPER_SWEEP_FLAGS]
            argv += ["--lambda", LAM] if penalty == "elastic" else []
            seconds, code, text = caller.cli("sweep", argv + ["--data", data, "--out", out])
            spec_for = functools.partial(_sweep_spec, loss, penalty, param)

            def check(code=code, text=text, out=out, spec_for=spec_for, param=param):
                return reference.check_exit(code, text) or reference.check_sweep(
                    out, spec_for, param, grid, *inputs["table"]()
                )

            ops.append(("sweep", seconds, check))
    for loss in LOSSES:
        for penalty in PENALTIES:
            if (loss, penalty) == ("least-squares", "l2"):
                continue  # closed form: nothing to iterate
            argv = ["--loss", loss, "--penalty", penalty, "--lambda", LAM, "--mu", MU, "--data", data]
            seconds, code, text = caller.cli("check", argv)
            ops.append(("check", seconds, functools.partial(reference.check_check_output, code, text)))
    return ops


# ---- large-fit -------------------------------------------------------------


def large_fit_setup(irlsvm, seed, work):
    mean = LARGE_Q50_MEAN * np.ones(50)
    datasets = {
        "q2": irlsvm.generate_gaussian_mixture(1_000_000, seed=2 * seed),
        "q50": irlsvm.generate_gaussian_mixture(100_000, mean_neg=-mean, mean_pos=mean, seed=2 * seed + 1),
    }
    sizes = [{"input": key, "rows": d.n, "cols": d.q, "csv_bytes": None, "design_bytes": _design_bytes(d.n, d.q)}
             for key, d in datasets.items()]
    return {"datasets": datasets, "sizes": sizes}


def large_fit_round(caller, inputs, seed, base):
    irlsvm = caller.irlsvm
    ops = []
    for key, loss, penalty in LARGE_FITS:
        dataset = inputs["datasets"][key]
        spec = irlsvm.RiskSpec(loss=irlsvm.Loss(loss), penalty=irlsvm.Penalty(penalty), lam=LAM, mu=MU)
        seconds, result = caller.fit(spec, dataset)

        def check(result=result, dataset=dataset, ref_spec=reference.make_spec(loss, penalty, LAM, MU)):
            if isinstance(result, Exception):
                return [f"fit raised {type(result).__name__}: {result}"]
            return reference.check_fit(
                ref_spec,
                result.theta.alpha,
                result.theta.beta,
                result.exact_risk_trajectory,
                result.smoothed_risk_trajectory,
                dataset.features,
                dataset.labels,
                reference.MIN_ACCURACY,
            )

        ops.append(("fit", seconds, check))
    return ops


# ---- cli-pipeline ----------------------------------------------------------


def cli_pipeline_setup(irlsvm, seed, work):
    # csv_bytes is filled in once simulate has written the file
    return {"sizes": [{"input": "data.csv", "rows": CLI_N, "cols": 2, "csv_bytes": None,
                       "design_bytes": _design_bytes(CLI_N, 2)}]}


def cli_pipeline_round(caller, inputs, seed, base):
    data, model, trajectory = base / "data.csv", base / "model.model", base / "model.trajectory.csv"
    sweep_out, predictions = base / "sweep", base / "predictions.csv"
    fit_spec = reference.make_spec("squared-hinge", "l2", lam=LAM)
    runs = [
        ("simulate", ["--n", CLI_N, "--seed", seed, "--out", data]),
        ("fit", ["--loss", "squared-hinge", "--penalty", "l2", "--lambda", LAM, "--data", data, "--out", model]),
        ("sweep", ["--loss", "logistic", "--penalty", "l2", "--lambda-grid", CLI_SWEEP_GRID,
                   "--data", data, "--out", sweep_out]),
        ("predict", ["--model", model, "--data", data, "--out", predictions]),
    ]
    results = [(verb, *caller.cli(verb, argv)) for verb, argv in runs]
    if data.is_file():
        inputs["sizes"][0]["csv_bytes"] = data.stat().st_size

    table = functools.cache(lambda: reference.read_table(data))

    def xy():
        header, values = table()
        label = header.index("y")
        return np.delete(values, label, axis=1), values[:, label]

    checks = {
        "simulate": lambda: reference.check_simulated(*table(), CLI_N, 2),
        "fit": lambda: reference.check_model_fit(model, trajectory, fit_spec, *xy(), reference.MIN_ACCURACY),
        "sweep": lambda: reference.check_sweep(
            sweep_out,
            lambda v: reference.make_spec("logistic", "l2", lam=v),
            "lambda",
            grid_values(CLI_SWEEP_GRID),
            *xy(),
            reference.MIN_ACCURACY,
        ),
        "predict": lambda: reference.check_predictions(predictions, *table(), model),
    }
    return [
        (verb, seconds, lambda verb=verb, code=code, text=text: reference.check_exit(code, text) or checks[verb]())
        for verb, seconds, code, text in results
    ]


WORKLOADS = {
    "paper-sweep": (paper_sweep_setup, paper_sweep_round),
    "large-fit": (large_fit_setup, large_fit_round),
    "cli-pipeline": (cli_pipeline_setup, cli_pipeline_round),
}


# ---- measuring -------------------------------------------------------------


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def _round(caller, round_fn, inputs, seed, work, index, state):
    base = work / f"round{index}"
    base.mkdir()
    ops = round_fn(caller, inputs, seed, base)
    if state.get("peak_rss_mb") is None:
        state["peak_rss_mb"] = _peak_rss_mb()
    problems = []
    verbs = {}
    op_seconds = []
    for verb, seconds, check in ops:
        found = reference.guard(check)
        problems.append([f"{verb}: {p}" for p in found])
        verbs[verb] = verbs.get(verb, 0.0) + seconds
        op_seconds.append([verb, seconds])
    shutil.rmtree(base)
    return {"wall_s": sum(verbs.values()), "verbs": verbs, "op_seconds": op_seconds, "problems": problems}


def _rounds(caller, round_fn, inputs, seed, work, seconds, state):
    deadline = time.perf_counter() + seconds
    done = []
    while not done or time.perf_counter() < deadline:
        done.append(_round(caller, round_fn, inputs, seed, work, state["next"], state))
        state["next"] += 1
    return done


def run(config, irlsvm, import_s):
    work = Path(config["work"])
    work.mkdir(parents=True, exist_ok=True)
    seed = config["seed"]
    setup_fn, round_fn = WORKLOADS[config["workload"]]
    start = time.perf_counter()
    inputs = setup_fn(irlsvm, seed, work)
    inputs_s = time.perf_counter() - start
    setup = {"import_s": import_s, "inputs_s": inputs_s, "setup_s": import_s + inputs_s}
    if config["mode"] == "setup":
        return setup

    caller = Caller(irlsvm)
    state = {"next": 0, "peak_rss_mb": None}
    seconds = config["seconds"]
    result = dict(setup)
    if not config["trace"]:
        result["rounds"] = _rounds(caller, round_fn, inputs, seed, work, seconds, state)
    else:
        # half the time untraced, half traced: their ratio is the tracing cost
        result["rounds"] = _rounds(caller, round_fn, inputs, seed, work, seconds / 2, state)
        recorder = spans.Recorder()
        recorder.install()
        caller.recorder = recorder
        try:
            result["traced_rounds"] = _rounds(caller, round_fn, inputs, seed, work, seconds / 2, state)
        finally:
            recorder.uninstall()
            caller.recorder = None
        layers, breakdown = spans.aggregate(recorder.threads(), rounds=len(result["traced_rounds"]))
        layers["trace_overhead"] = statistics.median(r["wall_s"] for r in result["traced_rounds"]) / statistics.median(
            r["wall_s"] for r in result["rounds"]
        )
        result["layers"] = layers
        result["breakdown"] = breakdown
        recorder.write_jsonl(config["spans_path"])
    result["peak_rss_mb"] = state["peak_rss_mb"]
    result["environment"] = environment(Path(config["root"]), seed, inputs["sizes"])
    return result


# ---- environment -----------------------------------------------------------


def _blas():
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    # OpenBLAS reports its thread count only through its own C API
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out["threads"] = fn()
                return out
    return out


def _git_rev(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(root, seed, sizes):
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_rev": _git_rev(root),
        "seed": seed,
        "llc_bytes": _llc_bytes(),
        "inputs": sizes,
    }
