"""Outside-in span recorder for the irlsvm package, and the arithmetic that
turns its spans into per-layer metrics.

The recorder replaces every public function of each layer module with a thin
wrapper, in every irlsvm module namespace that holds a reference to it, so
calls between modules are recorded too. Nothing in the package changes. Each
span holds name, parent, thread, wall start/end and thread-CPU start/end.
Spans of one thread nest strictly, so a span's self time is its duration
minus the durations of its children. A thread started by the sweep pool has
no recorded parent; its root spans carry the label of the operation that was
running when they opened, so per-operation breakdowns still see them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

# Package modules that make up the layers. The oracle is left out: only the
# test suite calls it.
LAYERS = ("cli", "data_io", "core", "engine", "losses", "penalties", "linalg")
READ_FUNCTIONS = ("load_dataset_csv", "load_feature_rows_csv", "read_model", "read_trajectory_csv")
WRITE_FUNCTIONS = ("write_dataset_csv", "write_trajectory_csv", "write_model")

# record slots
NAME, PARENT, T0, C0, T1, C1, EXTRA, OP = range(8)


def _file_bytes(path_index):
    def observe(args, kwargs, result):
        path = kwargs["path"] if "path" in kwargs else args[path_index]
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    return observe


def _gram_bytes(args, kwargs, result):
    # computed, not measured: read the design rows and the weights once,
    # write the (q+1) x (q+1) result
    design = kwargs.get("design", args[0] if args else None)
    rows = design.rows
    return rows.nbytes + rows.shape[0] * 8 + result.nbytes


def _observers(module, name, fn):
    """Per-function extra value stored on each span, or None."""
    if module == "linalg" and name == "solve_spd":
        return lambda args, kwargs, result: bool(result.jitter_used)
    if module == "linalg" and name == "weighted_gram":
        return _gram_bytes
    if module == "engine" and name == "fit":
        return lambda args, kwargs, result: result.iterations_run
    if module == "data_io" and name in READ_FUNCTIONS + WRITE_FUNCTIONS:
        params = list(inspect.signature(fn).parameters)
        if "path" in params:
            return _file_bytes(params.index("path"))
    return None


class Recorder:
    """Collects spans in memory; install() patches the package, uninstall()
    restores it."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[tuple[int, list]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.current_op: str | None = None

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ([], [])
            self._local.state = state
            self._threads.append((threading.get_ident(), state[0]))
        return state

    def _wrap(self, name, fn, observe):
        perf_counter, thread_time = time.perf_counter, time.thread_time
        thread_state = self._thread_state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = thread_state()
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0.0, None, None if stack else self.current_op]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = perf_counter()
            rec[C0] = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[C1] = thread_time()
                rec[T1] = perf_counter()
                stack.pop()
            if observe is not None:
                rec[EXTRA] = observe(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name, op):
        """Span opened by the benchmark itself around one operation; spans
        that pool threads open while it runs are labelled with op."""
        spans, stack = self._thread_state()
        rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0, 0.0, None, op]
        stack.append(len(spans))
        spans.append(rec)
        self.current_op = op
        rec[T0] = time.perf_counter()
        rec[C0] = time.thread_time()
        try:
            yield
        finally:
            rec[C1] = time.thread_time()
            rec[T1] = time.perf_counter()
            stack.pop()
            self.current_op = None

    def install(self):
        """Wrap the public functions of every imported layer module."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"irlsvm.{layer}")
            if module is None:  # a layer a later refactor removed counts as idle
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj, _observers(layer, name, obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "irlsvm" or mod_name.startswith("irlsvm.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def threads(self):
        """[(thread id, span records)] for every thread that recorded a span."""
        return list(self._threads)

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for tid, spans in self._threads:
                for i, rec in enumerate(spans):
                    handle.write(
                        json.dumps(
                            {
                                "thread": tid,
                                "id": i,
                                "name": rec[NAME],
                                "parent": rec[PARENT],
                                "start": rec[T0],
                                "end": rec[T1],
                                "cpu": rec[C1] - rec[C0],
                                "op": rec[OP],
                                "extra": rec[EXTRA],
                            }
                        )
                        + "\n"
                    )


def self_times(spans):
    """Per-span (self wall, self cpu, inherited op label) for one thread's
    strictly nested spans, listed in the order they opened."""
    wall = [rec[T1] - rec[T0] for rec in spans]
    cpu = [rec[C1] - rec[C0] for rec in spans]
    self_wall, self_cpu = list(wall), list(cpu)
    ops = []
    for i, rec in enumerate(spans):
        parent = rec[PARENT]
        if parent >= 0:
            self_wall[parent] -= wall[i]
            self_cpu[parent] -= cpu[i]
            ops.append(ops[parent] if rec[OP] is None else rec[OP])
        else:
            ops.append(rec[OP])
    return self_wall, self_cpu, ops


def aggregate(threads, rounds=1):
    """Per-layer metrics from recorded spans, as per-round values.

    Spans whose name has no layer prefix from LAYERS (the benchmark's own
    operation spans) count as parents but not as layer work.
    """
    layer = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "cpu_s": 0.0})
    func = defaultdict(lambda: {"calls": 0, "s": 0.0})
    by_op = defaultdict(lambda: defaultdict(float))
    iterations = 0
    fit_wall = 0.0
    fit_loss_calls = 0
    jittered = 0
    gram_bytes = []
    io_bytes = {"read": 0, "write": 0}
    io_time = {"read": 0.0, "write": 0.0}
    for _tid, spans in threads:
        self_wall, self_cpu, ops = self_times(spans)
        in_fit = []
        for i, rec in enumerate(spans):
            name = rec[NAME]
            parent = rec[PARENT]
            in_fit.append(name == "engine.fit" or (parent >= 0 and in_fit[parent]))
            layer_name, _, fn = name.partition(".")
            if layer_name not in LAYERS:
                continue
            stats = layer[layer_name]
            stats["calls"] += 1
            stats["self_s"] += self_wall[i]
            stats["cpu_s"] += self_cpu[i]
            func[name]["calls"] += 1
            func[name]["s"] += self_wall[i]
            if ops[i] is not None:
                by_op[ops[i]][layer_name] += self_wall[i]
            if name == "engine.fit":
                iterations += rec[EXTRA]
                fit_wall += rec[T1] - rec[T0]
            elif name == "losses.loss_value" and parent >= 0 and in_fit[parent]:
                fit_loss_calls += 1
            elif name == "linalg.solve_spd":
                jittered += bool(rec[EXTRA])
            elif name == "linalg.weighted_gram":
                gram_bytes.append(rec[EXTRA])
            elif layer_name == "data_io" and rec[EXTRA] is not None:
                kind = "read" if fn in READ_FUNCTIONS else "write"
                io_bytes[kind] += rec[EXTRA]
                io_time[kind] += self_wall[i]

    metrics = {}
    for name in LAYERS:
        stats = layer[name]
        metrics[f"{name}.calls"] = stats["calls"] / rounds
        metrics[f"{name}.self_s"] = stats["self_s"] / rounds
        metrics[f"{name}.cpu_s"] = stats["cpu_s"] / rounds
        metrics[f"{name}.wait_s"] = (stats["self_s"] - stats["cpu_s"]) / rounds
    for name, stats in sorted(func.items()):
        metrics[f"{name}.s"] = stats["s"] / rounds
        metrics[f"{name}.calls"] = stats["calls"] / rounds
    fits = func["engine.fit"]["calls"]
    metrics["engine.iterations"] = iterations / rounds
    metrics["engine.s_per_iteration"] = fit_wall / iterations if iterations else 0.0
    # iterates include each fit's initial point
    metrics["losses.loss_value.calls_per_iterate"] = fit_loss_calls / (iterations + fits) if fits else 0.0
    metrics["linalg.solve_spd.jittered"] = jittered / rounds
    metrics["linalg.weighted_gram.bytes_computed"] = sum(gram_bytes) / len(gram_bytes) if gram_bytes else 0.0
    metrics["data_io.read_mb_per_s"] = io_bytes["read"] / 1e6 / io_time["read"] if io_time["read"] else 0.0
    metrics["data_io.write_mb_per_s"] = io_bytes["write"] / 1e6 / io_time["write"] if io_time["write"] else 0.0
    breakdown = {op: {k: v / rounds for k, v in sorted(layers.items())} for op, layers in sorted(by_op.items())}
    return metrics, breakdown
