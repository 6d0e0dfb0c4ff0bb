"""Reference code that checks the outputs of each benchmark operation.

It imports nothing from irlsvm: risks, the monitored-risk choice, accuracy,
predictions and the file formats are re-derived here from the README, so a
defect in the package cannot hide itself by agreeing with its own helpers.
Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

RISK_RTOL = 1e-9
DESCENT_SLACK = 1e-10
MIN_ACCURACY = 0.90
DEFAULT_EPSILON = 1e-6
TRAJECTORY_HEADER = ["iteration", "exact_risk", "smoothed_risk"]
SUMMARY_HEADER = ["parameter", "value", "terminal_exact_risk", "terminal_smoothed_risk", "training_accuracy"]


def make_spec(loss, penalty, lam=0.0, mu=0.0, epsilon=DEFAULT_EPSILON):
    """The risk actually minimised: the 2-norm penalty ignores mu, the
    1-norm penalty ignores lambda."""
    return {
        "loss": loss,
        "penalty": penalty,
        "lam": 0.0 if penalty == "l1" else float(lam),
        "mu": 0.0 if penalty == "l2" else float(mu),
        "epsilon": float(epsilon),
    }


def _margins(alpha, beta, features, labels):
    return labels * (alpha + features @ np.asarray(beta, dtype=float))


def _loss(loss, m):
    u = 1.0 - m
    if loss == "hinge":
        return np.maximum(u, 0.0)
    if loss == "least-squares":
        return u * u
    if loss == "squared-hinge":
        return np.maximum(u, 0.0) ** 2
    if loss == "logistic":
        return np.maximum(-m, 0.0) + np.log1p(np.exp(-np.abs(m)))
    raise ValueError(f"unknown loss {loss!r}")


def exact_risk(spec, alpha, beta, features, labels):
    beta = np.asarray(beta, dtype=float)
    m = _margins(alpha, beta, features, labels)
    return float(np.mean(_loss(spec["loss"], m))) + spec["lam"] * float(beta @ beta) + spec["mu"] * float(
        np.abs(beta).sum()
    )


def smoothed_risk(spec, alpha, beta, features, labels):
    """Every absolute value |u| replaced by sqrt(u^2 + epsilon)."""
    beta = np.asarray(beta, dtype=float)
    eps = spec["epsilon"]
    m = _margins(alpha, beta, features, labels)
    if spec["loss"] == "hinge":
        u = 1.0 - m
        loss = 0.5 * (np.sqrt(u * u + eps) + u)
    else:
        loss = _loss(spec["loss"], m)
    return float(np.mean(loss)) + spec["lam"] * float(beta @ beta) + spec["mu"] * float(
        np.sqrt(beta * beta + eps).sum()
    )


def monitors_exact(spec):
    """The descent guarantee holds for the exact risk only with the 2-norm
    penalty and a loss without a kink; otherwise for the smoothed risk."""
    return spec["penalty"] == "l2" and spec["loss"] in ("least-squares", "squared-hinge", "logistic")


def decisions(alpha, beta, features):
    """Predicted labels sign(alpha + t.beta), ties going to +1, and scores."""
    scores = alpha + features @ np.asarray(beta, dtype=float)
    return np.where(scores >= 0.0, 1.0, -1.0), scores


def accuracy(alpha, beta, features, labels):
    return float(np.mean(decisions(alpha, beta, features)[0] == labels))


def _close(a, b, rtol=RISK_RTOL):
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * (1.0 + abs(b))


def check_fit(spec, alpha, beta, exact_track, smoothed_track, features, labels, min_accuracy=None):
    """Terminal risks recomputed from theta, monotone monitored risk, and
    (optionally) a floor on training accuracy."""
    problems = []
    exact_track = np.asarray(exact_track, dtype=float)
    smoothed_track = np.asarray(smoothed_track, dtype=float)
    if exact_track.shape != smoothed_track.shape or exact_track.size < 2:
        return [f"trajectory lengths {exact_track.size} and {smoothed_track.size} are not a fit"]
    ref_exact = exact_risk(spec, alpha, beta, features, labels)
    ref_smoothed = smoothed_risk(spec, alpha, beta, features, labels)
    if not _close(ref_exact, exact_track[-1]):
        problems.append(f"terminal exact risk {exact_track[-1]:.17g} but theta gives {ref_exact:.17g}")
    if not _close(ref_smoothed, smoothed_track[-1]):
        problems.append(f"terminal smoothed risk {smoothed_track[-1]:.17g} but theta gives {ref_smoothed:.17g}")
    monitored = exact_track if monitors_exact(spec) else smoothed_track
    problems += descent_problems(monitored)
    if min_accuracy is not None:
        acc = accuracy(alpha, beta, features, labels)
        if not acc >= min_accuracy:
            problems.append(f"training accuracy {acc:.4f} below {min_accuracy}")
    return problems


def descent_problems(monitored):
    monitored = np.asarray(monitored, dtype=float)
    if not np.isfinite(monitored).all():
        return ["non-finite monitored risk"]
    rise = monitored[1:] - monitored[:-1]
    bad = np.nonzero(rise > DESCENT_SLACK * (1.0 + np.abs(monitored[:-1])))[0]
    if bad.size:
        k = int(bad[0])
        return [f"monitored risk rose from {monitored[k]:.17g} to {monitored[k + 1]:.17g} at iteration {k + 1}"]
    return []


def read_table(path, text_first_column=False):
    """(header, float matrix) of a comma-separated file with a header row.

    With text_first_column, the first column is text: (header, names of
    that column, float matrix of the others).
    """
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        if not text_first_column:
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
            if data.shape[1] != len(header):
                raise ValueError(f"{path}: {data.shape[1]} columns under a {len(header)}-name header")
            return header, data
        rows = [line.rstrip("\n").split(",") for line in handle]
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: a row's width differs from the header's")
    data = np.array([[float(cell) for cell in row[1:]] for row in rows]).reshape(len(rows), len(header) - 1)
    return header, [row[0] for row in rows], data


def read_dataset(path):
    """(features, labels) of a dataset CSV whose label column is y."""
    header, data = read_table(path)
    label = header.index("y")
    return np.delete(data, label, axis=1), data[:, label]


def read_model(path):
    entries = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return entries


def guard(check):
    """Run a check; an unreadable or malformed output is a problem too."""
    try:
        return check()
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def check_trajectory_file(path, spec):
    header, data = read_table(path)
    if header != TRAJECTORY_HEADER:
        return [f"{path}: header {header}"], None
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        return [f"{path}: iterations are not 0..{data.shape[0] - 1}"], None
    monitored = data[:, 1] if monitors_exact(spec) else data[:, 2]
    return [f"{path}: {p}" for p in descent_problems(monitored)], data


def check_model_fit(model_path, trajectory_path, spec, features, labels, min_accuracy=None):
    """Output of the fit verb: the model file and its trajectory CSV."""
    model = read_model(model_path)
    beta = np.array([float(model[f"beta_{j + 1}"]) for j in range(features.shape[1])])
    alpha = float(model["alpha"])
    problems = []
    for key in ("loss", "penalty"):
        if model.get(key) != spec[key]:
            problems.append(f"model {key} is {model.get(key)!r}, expected {spec[key]!r}")
    header, data = read_table(trajectory_path)
    if header != TRAJECTORY_HEADER:
        return problems + [f"trajectory header {header}"]
    if int(model["iterations_run"]) != data.shape[0] - 1:
        problems.append(f"model says {model['iterations_run']} iterations, trajectory has {data.shape[0] - 1}")
    terminal = (float(model["terminal_exact_risk"]), float(model["terminal_smoothed_risk"]))
    if terminal != (data[-1, 1], data[-1, 2]):
        problems.append(f"model terminal risks {terminal} differ from the trajectory's last row")
    return problems + check_fit(spec, alpha, beta, data[:, 1], data[:, 2], features, labels, min_accuracy)


def check_sweep(out_dir, spec_for, param, grid, features, labels, min_accuracy=None):
    """Output of the sweep verb: summary and hyperplanes with one row per
    grid point, and one trajectory file per grid point. Trajectory files are
    counted and matched to grid points by content, not by name."""
    out_dir = Path(out_dir)
    header, names, summary = read_table(out_dir / "summary.csv", text_first_column=True)
    if header != SUMMARY_HEADER:
        return [f"summary header {header}"]
    planes_header, plane_names, planes = read_table(out_dir / "hyperplanes.csv", text_first_column=True)
    problems = []
    if planes_header != ["parameter", "value", "alpha"] + [f"beta_{j + 1}" for j in range(features.shape[1])]:
        problems.append(f"hyperplanes header {planes_header}")
    if summary.shape[0] != len(grid) or planes.shape[0] != len(grid):
        return problems + [f"{summary.shape[0]} summary and {planes.shape[0]} hyperplane rows for {len(grid)} points"]
    for i, value in enumerate(grid):
        if not (
            names[i] == plane_names[i] == param
            and _close(summary[i, 0], value, 1e-12)
            and _close(planes[i, 0], value, 1e-12)
        ):
            problems.append(f"row {i} is for {names[i]} {summary[i, 0]}, expected {param} {value}")
            continue
        spec = spec_for(summary[i, 0])
        exact, smoothed = summary[i, 1], summary[i, 2]
        alpha, beta = planes[i, 1], planes[i, 2:]
        if not _close(exact_risk(spec, alpha, beta, features, labels), exact):
            problems.append(f"{param}={value}: terminal exact risk {exact:.17g} disagrees with its hyperplane")
        if not _close(smoothed_risk(spec, alpha, beta, features, labels), smoothed):
            problems.append(f"{param}={value}: terminal smoothed risk {smoothed:.17g} disagrees with its hyperplane")
        if min_accuracy is not None and not accuracy(alpha, beta, features, labels) >= min_accuracy:
            problems.append(f"{param}={value}: training accuracy below {min_accuracy}")
    trajectories = sorted(p for p in out_dir.iterdir() if p.name not in ("summary.csv", "hyperplanes.csv"))
    if len(trajectories) != len(grid):
        return problems + [f"{len(trajectories)} trajectory files for {len(grid)} grid points"]
    last = []
    for path in trajectories:
        file_problems, data = check_trajectory_file(path, spec_for(grid[0]))
        problems += file_problems
        if data is not None:
            last.append(data[-1, 1])
    if len(last) == len(grid) and sorted(last) != sorted(summary[:, 1]):
        problems.append("trajectory end points do not match the summary's terminal risks")
    return problems


def check_predictions(pred_path, header, table, model_path):
    """Output of the predict verb: the input table (header, float matrix)
    unchanged plus a predicted column equal to sign(alpha + t.beta), ties
    going to +1."""
    features = table[:, [i for i, name in enumerate(header) if name != "y"]]
    model = read_model(model_path)
    beta = np.array([float(model[f"beta_{j + 1}"]) for j in range(features.shape[1])])
    alpha = float(model["alpha"])
    pred_header, data = read_table(pred_path)
    if pred_header != header + ["predicted"] or data.shape[0] != table.shape[0]:
        return [f"{data.shape[0]} rows under {pred_header}, expected {table.shape[0]} under {header + ['predicted']}"]
    if not np.array_equal(data[:, :-1], table):
        return ["input columns changed"]
    want, scores = decisions(alpha, beta, features)
    # a score within rounding of 0 may land on either side
    wrong = (data[:, -1] != want) & (np.abs(scores) > 1e-12 * (abs(alpha) + np.abs(features) @ np.abs(beta)))
    if wrong.any():
        return [f"{int(wrong.sum())} wrong predictions, first at row {int(np.argmax(wrong)) + 1}"]
    return []


def check_simulated(header, table, n, q):
    """Output of the simulate verb, parsed: n rows, x1..xq then y, balanced
    classes around (-1, ..., -1) and (1, ..., 1)."""
    if header != [f"x{j + 1}" for j in range(q)] + ["y"] or table.shape[0] != n:
        return [f"{table.shape[0]} rows under {header}"]
    labels = table[:, -1]
    if not (np.sum(labels == -1.0) == n // 2 and np.sum(labels == 1.0) == n // 2):
        return ["classes are not n/2 each of -1 and +1"]
    problems = []
    for sign in (-1.0, 1.0):
        mean = table[labels == sign, :-1].mean(axis=0)
        # the mean of n/2 unit normals is within 0.05 of the class centre
        # with overwhelming probability for n >= 10^4
        if np.abs(mean - sign).max() > 0.05:
            problems.append(f"class {sign:+g} mean {mean} is not near {sign:+g}")
    return problems


def check_exit(exit_code, stdout):
    """Any operation: exit code 0, as a problem list."""
    return [] if exit_code == 0 else [f"exit code {exit_code}: {stdout.strip()[-300:]!r}"]


def check_check_output(exit_code, stdout):
    """Output of the check verb: exit 0 and every invariant reported PASS."""
    lines = [line for line in stdout.splitlines() if line.startswith("[")]
    if exit_code != 0 or not lines or any(not line.startswith("[PASS]") for line in lines):
        return [f"check exited {exit_code}: {stdout.strip()!r}"]
    return []
