"""Command-line surface: fit, predict, simulate, sweep, and check.

Exit codes: 0 success, 2 usage error, 3 data error, 4 solver error,
5 invariant violation (from check).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import DEFAULT_EPSILON, Loss, Penalty, RiskSpec, monitor_kind, predict_batch
from .data_io import (
    DataError,
    _mixture_blocks,
    _write_rows,
    _write_samples,
    load_dataset_csv,
    read_model,
    staged_outputs,
    write_model,
    write_predictions_csv,
    write_trajectory_csv,
)
from .engine import ANCHOR_SLACK, DESCENT_SLACK, SURROGATE_SLACK, FitError, FitOptions, Init, fit
from .engine import _extrapolated, _violations

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5

# each grid point is one fit; a longer grid is taken for a mistyped step
MAX_GRID_POINTS = 10_000


def _grid(text):
    """Inclusive start:step:end grid; a bare number is a single-point grid."""
    try:
        parts = [float(p) for p in text.split(":")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid {text!r} is not numeric") from None
    if not all(math.isfinite(p) for p in parts):
        raise argparse.ArgumentTypeError(f"grid {text!r} is not finite")
    if len(parts) == 1:
        values = parts
    elif len(parts) == 3:
        start, step, end = parts
        if step == 0:
            if end != start:
                raise argparse.ArgumentTypeError("grid step is 0 but end differs from start")
            values = [start]
        else:
            count = (end - start) / step
            if not math.isfinite(count):
                raise argparse.ArgumentTypeError(f"grid {text!r} has too many points to count")
            rounded = round(count)
            if rounded < 0 or abs(count - rounded) > 1e-9 * max(1.0, abs(count)):
                raise argparse.ArgumentTypeError(f"grid end {end} is not start + k*step")
            if rounded + 1 > MAX_GRID_POINTS:
                raise argparse.ArgumentTypeError(f"grid has {rounded + 1} points, more than {MAX_GRID_POINTS}")
            values = [start + i * step for i in range(rounded + 1)]
    else:
        raise argparse.ArgumentTypeError("grid must be start:step:end")
    if any(v < 0 for v in values):
        raise argparse.ArgumentTypeError("grid values must be >= 0")
    return values


def _value_names(grid) -> list[str]:
    """Grid values as %g text with the fewest significant digits, at least 6,
    that keep distinct values apart; 17 digits always do."""
    digits = 6
    while len({format(v, f".{digits}g") for v in grid}) < len(set(grid)):
        digits += 1
    return [format(v, f".{digits}g") for v in grid]


def _add_risk_flags(parser):
    parser.add_argument("--loss", required=True, choices=[l.value for l in Loss])
    parser.add_argument("--penalty", required=True, choices=[p.value for p in Penalty])
    parser.add_argument("--lambda", dest="lam", type=float, default=RiskSpec.lam, help="2-norm penalty constant")
    parser.add_argument("--mu", type=float, default=RiskSpec.mu, help="1-norm penalty constant")
    parser.add_argument(
        "--epsilon", type=float, default=DEFAULT_EPSILON, help="smoothing constant (default %(default)s)"
    )


def _add_fit_flags(parser):
    parser.add_argument(
        "--iterations", type=int, default=FitOptions.max_iterations, help="maximum update count (default %(default)s)"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=FitOptions.risk_tolerance,
        help="relative monitored-risk change that stops early; 0 runs all iterations (default %(default)s)",
    )
    parser.add_argument("--init", choices=[i.value for i in Init], default=FitOptions.init.value)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than parsing one command line."""
    parser = argparse.ArgumentParser(
        prog="irlsvm",
        description="Train linear SVMs with reweighted-least-squares updates derived from quadratic surrogates.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_fit = sub.add_parser("fit", help="train one loss/penalty combination on a CSV dataset")
    _add_risk_flags(p_fit)
    _add_fit_flags(p_fit)
    p_fit.add_argument("--data", required=True, help="labeled dataset CSV (label column 'y')")
    p_fit.add_argument("--out", required=True, help="model file path; a .trajectory.csv lands next to it")
    p_fit.set_defaults(handler=_cmd_fit)

    p_pred = sub.add_parser("predict", help="append a predicted-label column to a CSV")
    p_pred.add_argument("--model", required=True, help="model file written by fit")
    p_pred.add_argument("--data", required=True, help="feature CSV; a 'y' column, if present, is ignored")
    p_pred.add_argument("--out", required=True, help="output CSV path")
    p_pred.set_defaults(handler=_cmd_predict)

    p_sim = sub.add_parser("simulate", help="generate the two-Gaussian benchmark dataset")
    p_sim.add_argument("--n", type=int, default=10_000, help="sample count, even (default %(default)s)")
    p_sim.add_argument("--seed", type=int, default=2017, help="generator seed (default %(default)s)")
    p_sim.add_argument("--out", required=True, help="dataset CSV path")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="fit across a penalty-constant grid and export the run data")
    _add_risk_flags(p_sweep)
    _add_fit_flags(p_sweep)
    p_sweep.add_argument("--data", required=True)
    p_sweep.add_argument("--out", required=True, help="output directory")
    grid_group = p_sweep.add_mutually_exclusive_group(required=True)
    grid_group.add_argument("--lambda-grid", dest="lambda_grid", type=_grid, help="start:step:end, inclusive")
    grid_group.add_argument("--mu-grid", dest="mu_grid", type=_grid, help="start:step:end, inclusive")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_check = sub.add_parser("check", help="fit one combination and verify the descent invariants of its iterates")
    _add_risk_flags(p_check)
    _add_fit_flags(p_check)
    p_check.add_argument("--data", required=True)
    p_check.set_defaults(handler=_cmd_check)

    return parser


def _spec_from_args(args) -> RiskSpec:
    return RiskSpec(
        loss=Loss(args.loss),
        penalty=Penalty(args.penalty),
        lam=args.lam,
        mu=args.mu,
        epsilon=args.epsilon,
    )


def _options_from_args(args) -> FitOptions:
    return FitOptions(max_iterations=args.iterations, risk_tolerance=args.tolerance, init=Init(args.init))


def _refuse_overwriting(flag, source, outputs) -> None:
    """A usage error when one of the output paths names the file given as flag
    (the same resolved path, or a link to it), which writing would replace; a
    missing flag file is left to the read that meets it."""
    source = Path(source)
    if not source.exists():
        return
    for out in map(Path, outputs):
        if out.resolve() == source.resolve() or (out.exists() and out.samefile(source)):
            raise ValueError(f"output {out} is the {flag} file {source}")


def _cmd_fit(args) -> int:
    spec = _spec_from_args(args)
    options = _options_from_args(args)
    if os.path.isdir(args.out):  # refused before any work, with the error its write would meet
        raise DataError(f"{Path(args.out)}: cannot write: {os.strerror(errno.EISDIR)}")
    trajectory = Path(args.out).with_suffix(".trajectory.csv")
    _refuse_overwriting("--data", args.data, [args.out, trajectory])
    result = fit(spec, load_dataset_csv(args.data), options)
    with staged_outputs():
        write_model(result, spec, args.out)
        write_trajectory_csv(result, trajectory)
    jitter_note = (
        f"; {result.jittered_solves} jittered solves, descent not guaranteed" if result.jittered_solves else ""
    )
    extrapolated = int(_extrapolated(result).sum())
    extrapolated_note = f"; {extrapolated} updates from extrapolated points" if extrapolated else ""
    print(
        f"fit {spec.loss.value}+{spec.penalty.value}: {result.iterations_run} iterations"
        f" ({result.termination_reason.value}), exact risk {result.exact_risk_trajectory[-1]:.6g},"
        f" smoothed risk {result.smoothed_risk_trajectory[-1]:.6g}{jitter_note}{extrapolated_note}"
    )
    print(f"wrote {args.out} and {trajectory}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    theta, _spec = read_model(args.model)
    # an --out that names --data is allowed: the output replaces it once the copy is done
    _refuse_overwriting("--model", args.model, [args.out])
    count = write_predictions_csv(theta, args.data, args.out)
    print(f"wrote {count} predictions to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # each block is written as it comes: no design is built, and no check is needed, as a normal
    # of the polar transform is at most sqrt(-2 ln 2**-104) < 12.01 in size and the means are +-1
    _write_samples(args.out, *_mixture_blocks(args.n, seed=args.seed))
    print(f"wrote {args.n} samples ({args.n // 2} per class) to {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec_base = _spec_from_args(args)
    options = _options_from_args(args)
    param = "lambda" if args.lambda_grid is not None else "mu"
    field, grid = ("lam", args.lambda_grid) if param == "lambda" else ("mu", args.mu_grid)
    # RiskSpec zeroes the constant a penalty does not use, so its grid would repeat one fit
    if getattr(dataclasses.replace(spec_base, **{field: 1.0}), field) == 0.0:
        raise ValueError(f"--{param}-grid sweeps {param}, which penalty {spec_base.penalty.value} does not use")
    if getattr(args, field) != getattr(RiskSpec, field):
        raise ValueError(f"--{param} {getattr(args, field):g} is overridden by --{param}-grid")
    out_dir = Path(args.out)
    summary_path = out_dir / "summary.csv"
    hyperplane_path = out_dir / "hyperplanes.csv"
    trajectory_paths = [out_dir / f"trajectory_{param}_{name}.csv" for name in _value_names(grid)]
    _refuse_overwriting("--data", args.data, [summary_path, hyperplane_path, *trajectory_paths])
    # an --out that can never be a directory is refused before any fit, as its creation would refuse it
    existing = next(path for path in (out_dir, *out_dir.parents) if os.path.exists(path))
    if not os.path.isdir(existing):
        raise _creation_error(out_dir, os.strerror(errno.EEXIST if existing == out_dir else errno.ENOTDIR))

    dataset = load_dataset_csv(args.data)
    results = [fit(dataclasses.replace(spec_base, **{field: value}), dataset, options) for value in grid]
    accuracies = [
        sum(np.count_nonzero(predict_batch(r.theta, rows) == y) for y, rows in dataset._feature_blocks()) / dataset.n
        for r in results
    ]

    # made only now, so that a failed fit leaves no directory behind
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise _creation_error(out_dir, err.strerror or str(err)) from err
    with staged_outputs():
        _write_rows(
            summary_path,
            ["parameter", "value", "terminal_exact_risk", "terminal_smoothed_risk", "training_accuracy"],
            [
                [
                    param,
                    grid,
                    [r.exact_risk_trajectory[-1] for r in results],
                    [r.smoothed_risk_trajectory[-1] for r in results],
                    accuracies,
                ]
            ],
        )
        _write_rows(
            hyperplane_path,
            ["parameter", "value", "alpha"] + [f"beta_{j + 1}" for j in range(dataset.q)],
            [[param, grid, [r.theta.alpha for r in results], *np.array([r.theta.beta for r in results]).T]],
        )
        for path, result in zip(trajectory_paths, results):
            write_trajectory_csv(result, path)

    print(f"swept {param} over {len(grid)} points; wrote {summary_path} and {hyperplane_path}")
    return EXIT_OK


def _creation_error(out_dir: Path, reason: str) -> DataError:
    return DataError(f"{out_dir}: cannot create directory: {reason}")


def _cmd_check(args) -> int:
    spec = _spec_from_args(args)
    options = _options_from_args(args)
    dataset = load_dataset_csv(args.data)
    result = fit(spec, dataset, options)
    descent, anchor, surrogate = _violations(spec, result, dataset)
    checks = [
        (f"monotone {monitor_kind(spec).value}-risk descent", descent <= DESCENT_SLACK, descent),
        ("surrogate touches risk at anchor", anchor <= ANCHOR_SLACK, anchor),
        ("update does not raise the surrogate", surrogate <= SURROGATE_SLACK, surrogate),
    ]
    failed = False
    for name, ok, value in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name} (worst relative violation {value:.3e})")
        failed |= not ok
    if result.jittered_solves:
        print(f"note: {result.jittered_solves} jittered solves, descent not guaranteed")
    return EXIT_INVARIANT if failed else EXIT_OK


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.handler(args)
    except DataError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except FitError as err:
        print(f"solver error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
