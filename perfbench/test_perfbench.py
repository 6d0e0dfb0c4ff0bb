"""Self-tests of the benchmark's own logic. Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import irlsvm  # noqa: E402
import irlsvm.cli  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COMBOS = [(loss, penalty) for loss in workloads.LOSSES for penalty in workloads.PENALTIES]


@pytest.mark.parametrize("loss,penalty", COMBOS)
def test_reference_risks_agree_with_irlsvm(loss, penalty):
    rng = np.random.default_rng(5)
    features = rng.normal(size=(300, 3))
    labels = np.where(rng.random(300) < 0.5, -1.0, 1.0)
    dataset = irlsvm.Dataset(features=features, labels=labels)
    theta = irlsvm.ModelParams(alpha=0.3, beta=np.array([0.5, -1.2, 0.0]))
    spec = irlsvm.RiskSpec(irlsvm.Loss(loss), irlsvm.Penalty(penalty), lam=0.2, mu=0.3, epsilon=1e-3)
    ref = reference.make_spec(loss, penalty, lam=0.2, mu=0.3, epsilon=1e-3)
    args = (theta.alpha, theta.beta, features, labels)
    assert reference.exact_risk(ref, *args) == pytest.approx(irlsvm.risk(spec, theta, dataset), rel=1e-12)
    assert reference.smoothed_risk(ref, *args) == pytest.approx(irlsvm.smoothed_risk(spec, theta, dataset), rel=1e-12)
    assert reference.monitors_exact(ref) == (irlsvm.monitor_kind(spec) is irlsvm.Monitor.EXACT)


def _rec(name, parent, t0, t1, c0, c1, op=None, extra=None):
    return [name, parent, t0, c0, t1, c1, extra, op]


def test_self_time_arithmetic_on_nested_spans():
    main_thread = [
        _rec("op.fit", -1, 0.0, 10.0, 0.0, 6.0, op="fit"),
        _rec("engine.fit", 0, 1.0, 9.0, 1.0, 6.0, extra=7),
        _rec("linalg.weighted_gram", 1, 2.0, 5.0, 2.0, 3.0, extra=1000),
        _rec("losses.loss_value", 1, 6.0, 7.0, 3.5, 4.5),
        _rec("losses.loss_value", 3, 6.2, 6.4, 3.6, 3.8),  # nested in its own layer
    ]
    # a pool thread: no parent, labelled with the operation running when it opened
    pool_thread = [
        _rec("engine.fit", -1, 2.0, 4.0, 0.0, 1.0, op="fit", extra=3),
        _rec("losses.loss_value", 0, 2.5, 3.0, 0.2, 0.6),
    ]
    self_wall, self_cpu, ops = spans.self_times(main_thread)
    assert self_wall == pytest.approx([2.0, 4.0, 3.0, 0.8, 0.2])
    assert self_cpu == pytest.approx([1.0, 3.0, 1.0, 0.8, 0.2])
    assert ops == ["fit"] * 5

    metrics, breakdown = spans.aggregate([(1, main_thread), (2, pool_thread)], rounds=2)
    assert metrics["engine.calls"] == 1.0
    assert metrics["engine.self_s"] == pytest.approx((4.0 + 1.5) / 2)
    assert metrics["engine.cpu_s"] == pytest.approx((3.0 + 0.6) / 2)
    assert metrics["engine.wait_s"] == pytest.approx((5.5 - 3.6) / 2)
    assert metrics["linalg.self_s"] == pytest.approx(1.5)
    assert metrics["losses.self_s"] == pytest.approx((0.8 + 0.2 + 0.5) / 2)
    assert metrics["losses.loss_value.calls"] == 1.5
    # per-function self times add up to their layer's
    assert metrics["losses.loss_value.s"] == pytest.approx(metrics["losses.self_s"])
    assert metrics["engine.iterations"] == 5.0
    assert metrics["engine.s_per_iteration"] == pytest.approx((8.0 + 2.0) / 10)
    # three loss_value calls inside fits, over 10 iterations plus 2 initial points
    assert metrics["losses.loss_value.calls_per_iterate"] == pytest.approx(3 / 12)
    assert metrics["linalg.weighted_gram.bytes_computed"] == 1000
    assert breakdown["fit"] == pytest.approx({"engine": 2.75, "linalg": 1.5, "losses": 0.75})
    assert "op" not in breakdown["fit"]


def test_recorder_covers_pool_threads_and_restores_the_package(tmp_path):
    data = tmp_path / "data.csv"
    irlsvm.write_dataset_csv(irlsvm.generate_gaussian_mixture(400, seed=3), data)
    original = irlsvm.fit
    recorder = spans.Recorder()
    recorder.install()
    try:
        with recorder.span("op.sweep", "sweep"):
            argv = ["sweep", "--loss", "hinge", "--penalty", "l2", "--lambda-grid", "0:0.1:0.3", "--tolerance", "0",
                    "--iterations", "4", "--data", str(data), "--out", str(tmp_path / "sweep")]
            assert irlsvm.cli.main(argv) == 0
    finally:
        recorder.uninstall()
    assert irlsvm.fit is original and irlsvm.cli.fit is original
    threads = recorder.threads()
    assert len(threads) > 1  # the sweep pool's threads recorded spans
    metrics, breakdown = spans.aggregate(threads)
    assert metrics["engine.fit.calls"] == 4
    assert metrics["engine.iterations"] == 16
    assert metrics["cli.main.calls"] == 1
    assert breakdown["sweep"]["engine"] > 0 and breakdown["sweep"]["data_io"] > 0


class CorruptingCaller(workloads.Caller):
    """Flips the first predicted label after the predict verb runs."""

    def cli(self, verb, argv):
        out = super().cli(verb, argv)
        if verb == "predict":
            path = Path(argv[argv.index("--out") + 1])
            lines = path.read_text().splitlines()
            row = lines[1].split(",")
            row[-1] = "1" if row[-1] == "-1" else "-1"
            lines[1] = ",".join(row)
            path.write_text("\n".join(lines) + "\n")
        return out


@pytest.mark.parametrize("caller_class,failed", [(workloads.Caller, 0), (CorruptingCaller, 1)])
def test_corrupted_output_raises_error_rate(tmp_path, monkeypatch, caller_class, failed):
    monkeypatch.setattr(workloads, "CLI_N", 4000)
    _setup, round_fn = workloads.WORKLOADS["cli-pipeline"]
    inputs = workloads.cli_pipeline_setup(irlsvm, 9, tmp_path)
    result = workloads._round(caller_class(irlsvm), round_fn, inputs, 9, tmp_path, 0, {})
    attempted, failures = run.error_counts([result])
    assert attempted == 4 and failures == failed
    if failed:
        assert any(p.startswith("predict:") for problems in result["problems"] for p in problems)


def test_percentile_summary_keeps_ten_samples_beyond_the_tail():
    summary = run.percentile_summary(list(range(1, 21)))
    assert summary["n"] == 20 and summary["median"] == 10.5
    assert summary["tail"] == 10 and summary["tail_pct"] == 50.0
    assert run.percentile_summary([1.0, 2.0])["tail"] is None


def test_layer_map_names_metrics_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    workload_names = {w["name"] for w in spec["workloads"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    e2e = {"setup_s", "wall_s", "peak_rss_mb", "simulate_s", "fit_s", "sweep_s", "predict_s", "check_s"}
    for entry in layer_map["map"]:
        assert entry["layer_metric"].split(".")[0] in spans.LAYERS + ("setup",)
        assert (entry["in"] == "per_layer") == (entry["layer_metric"] in per_layer)
        for target in entry["moves"]:
            assert target["workload"] in workload_names and target["metric"] in e2e
