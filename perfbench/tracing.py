"""Spans and counters recorded from outside the package.

The benchmark never edits the package. It replaces attributes of the
imported modules with wrappers that time the original call, so the spans sit
at the boundary of each module. Spans stay in memory until the run ends. A
span is ``(name, start, end, parent, a, b)``: ``parent`` is the index of the
enclosing span (-1 at top level), ``a`` and ``b`` are work counts that the
wrapper reads from the call (rows, elements, bytes).

A wrap target that a later refactor removed is skipped, and every per-layer
metric that depends on it is reported as absent instead of failing the run.
Pool workers are forked with the wrappers in place but record no spans, so
for multi-worker runs only the parent-side numbers are kept.
"""

from __future__ import annotations

import contextlib
import functools
import json
import multiprocessing
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Per-layer metrics of a traced run, with units. BENCHMARK.json lists the same.
PER_LAYER = {
    "harness.live_fraction": "frac",
    "harness.evaluate_population.s": "s",
    "harness.evaluate_population.calls": "count",
    "harness.evaluate.s": "s",
    "harness.evaluate.calls": "count",
    "harness.pool.starts": "count",
    "harness.pool.start_s": "s",
    "harness.pool.shutdown_s": "s",
    "network.forward.s": "s",
    "network.forward.calls": "count",
    "network.forward.rows": "count",
    "network.forward.self_s": "s",
    "network.policy_init.s": "s",
    "network.load_champion.s": "s",
    "neural_unit.step.L0.s": "s",
    "neural_unit.step.L1.s": "s",
    "neural_unit.step.L2.s": "s",
    "neural_unit.step.L3.s": "s",
    "neural_unit.step.elems": "count",
    "cartpole.step.s": "s",
    "cartpole.step.rows": "count",
    "cartpole.step.live_rows": "count",
    "cartpole.reset.s": "s",
    "optimizers.ga.ask.s": "s",
    "optimizers.ga.tell.s": "s",
    "optimizers.cmaes.ask.s": "s",
    "optimizers.cmaes.tell.s": "s",
    "optimizers.cmaes.eig.s": "s",
    "optimizers.cmaes.eig.calls": "count",
    "optimizers.pipeline_step.s": "s",
    "cli.checkpoint.s": "s",
    "cli.checkpoint.bytes": "B",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}

# Spans that only the process running the rollout can see.
_ROLLOUT_SPANS = ("network.", "neural_unit.", "cartpole.")


def _rows(args):
    return np.shape(args[1])[0], 0


def _elems(args):
    return np.size(args[1]), 0


def _env_rows(args):
    done = args[0].done
    return len(done), len(done) - int(np.count_nonzero(done))


def _file_bytes(args, _result):
    return os.path.getsize(args[0]), 0


# (module, attribute path, span name, work count before the call, after it)
TARGETS = (
    ("harness", "evaluate_population", "harness.evaluate_population", None, None),
    ("harness", "evaluate", "harness.evaluate", None, None),
    ("network", "BatchedPolicy.__init__", "network.policy_init", None, None),
    ("network", "BatchedPolicy.forward", "network.forward", _rows, None),
    ("network", "layer_step_recurrent", "neural_unit.step", _elems, None),
    ("network", "load_champion", "network.load_champion", None, None),
    ("cartpole", "BatchedSwingUp.step", "cartpole.step", _env_rows, None),
    ("cartpole", "BatchedSwingUp.reset", "cartpole.reset", None, None),
    ("optimizers", "GeneticAlgorithm.ask", "optimizers.ga.ask", None, None),
    ("optimizers", "GeneticAlgorithm.tell", "optimizers.ga.tell", None, None),
    ("optimizers", "CmaEs.ask", "optimizers.cmaes.ask", None, None),
    ("optimizers", "CmaEs.tell", "optimizers.cmaes.tell", None, None),
    ("optimizers", "CmaEs._update_eigensystem", "optimizers.cmaes.eig", None, None),
    ("optimizers", "PipelineRunner.step", "optimizers.pipeline_step", None, None),
    ("cli", "_save_runner_checkpoint", "cli.checkpoint", None, _file_bytes),
)


class Tracer:
    """In-memory span recorder for one process; off until ``active`` is set."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.active = False
        self.spans = []
        self._stack = []
        self._pid = os.getpid()

    def _recording(self):
        # Forked pool workers inherit the wrappers; their spans would be lost.
        return self.active and os.getpid() == self._pid

    def wrap(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._recording():
                return fn(*args, **kwargs)
            a, b = pre(args) if pre else (0, 0)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, a, b)
            if post:
                self.spans[idx] = (name, t0, t1, parent) + tuple(post(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        if not self._recording():
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, t0, perf_counter(), parent, 0, 0)

    def write(self, path):
        """Write spans as a names table plus rows of integer nanoseconds."""
        spans = self.spans
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        base = spans[0][1] if spans else 0.0
        rows = [
            [index[n], round((t0 - base) * 1e9), round((t1 - base) * 1e9), p, int(a), int(b)]
            for n, t0, t1, p, a, b in spans
        ]
        payload = {
            "run_id": self.run_id,
            "columns": ["name", "start_ns", "end_ns", "parent", "a", "b"],
            "names": names,
            "self_s": self_times(spans),
            "spans": rows,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class StepCounter:
    """Candidate env-steps taken and live ones, summed over this process and
    the pool workers it forks (the counts sit in shared memory)."""

    def __init__(self):
        self._shared = multiprocessing.Array("q", 2)

    def add(self, rows, live):
        with self._shared.get_lock():
            self._shared[0] += rows
            self._shared[1] += live

    def read(self):
        with self._shared.get_lock():
            return int(self._shared[0]), int(self._shared[1])


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


def _counting_step(counter, fn):
    @functools.wraps(fn)
    def step(self, *args, **kwargs):
        done = getattr(self, "done", None)
        if done is not None:
            counter.add(len(done), len(done) - int(np.count_nonzero(done)))
        return fn(self, *args, **kwargs)

    return step


def install(modules, counter, tracer=None):
    """Install the step counter and, given a tracer, the span wrappers.

    Untraced runs get only the step counter, so their end-to-end times carry
    no tracing cost. Returns the names of targets that could not be wrapped.
    """
    missing = set()
    owner, attr = _resolve(modules["cartpole"], "BatchedSwingUp.step")
    if owner is None or getattr(owner, attr, None) is None:
        missing.add("step_counter")
    else:
        setattr(owner, attr, _counting_step(counter, getattr(owner, attr)))
    if tracer is None:
        return missing
    for mod, path, name, pre, post in TARGETS:
        owner, attr = _resolve(modules[mod], path)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.add(name)
            continue
        setattr(owner, attr, tracer.wrap(name, fn, pre, post))
    pool_cls = getattr(modules["harness"], "ProcessPoolExecutor", None)
    if pool_cls is None:
        missing.add("harness.pool")
    else:
        modules["harness"].ProcessPoolExecutor = _traced_pool(tracer, pool_cls)
    return missing


def _traced_pool(tracer, base):
    class TracedPool(base):
        """Times pool start (construction plus the submit that forks the
        workers) and shutdown, which waits for the workers to exit."""

        def __init__(self, *args, **kwargs):
            with tracer.span("harness.pool.init"):
                super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            with tracer.span("harness.pool.submit"):
                return super().map(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            with tracer.span("harness.pool.shutdown"):
                return super().shutdown(*args, **kwargs)

    return TracedPool


def self_times(spans):
    """Per span name: total duration minus the time its child spans cover."""
    child = defaultdict(float)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = defaultdict(float)
    for i, (name, t0, t1, _, _, _) in enumerate(spans):
        out[name] += (t1 - t0) - child[i]
    return dict(out)


def _source(metric):
    """Span name (or counter) a per-layer metric is computed from."""
    if metric == "harness.live_fraction":
        return "step_counter"
    if metric.startswith("harness.pool."):
        return "harness.pool"
    if metric.startswith("neural_unit.step."):
        return "neural_unit.step"
    if metric.startswith("optimizers.cmaes.eig."):
        return "optimizers.cmaes.eig"
    if metric.startswith("trace."):
        return None
    return metric.rsplit(".", 1)[0]


def absent_metrics(missing, workers):
    out = []
    for metric in PER_LAYER:
        src = _source(metric)
        if src in missing or (workers > 1 and metric.startswith(_ROLLOUT_SPANS)):
            out.append(metric)
    return out


def per_layer(spans, steps, live_steps, absent, trace_stats):
    """Per-layer metrics from the spans of one traced run.

    ``steps``/``live_steps`` come from the step counter, which also sees pool
    workers; ``trace_stats`` holds the ``trace.*`` values.
    """
    dur = defaultdict(float)
    calls = Counter()
    work_a = Counter()
    work_b = Counter()
    layer_s = defaultdict(float)
    layer_pos = Counter()
    for name, t0, t1, parent, a, b in spans:
        dur[name] += t1 - t0
        calls[name] += 1
        work_a[name] += a
        work_b[name] += b
        if name == "neural_unit.step":
            layer_s[layer_pos[parent]] += t1 - t0
            layer_pos[parent] += 1
    selfs = self_times(spans)
    values = {
        "harness.live_fraction": live_steps / steps if steps else 0.0,
        "harness.evaluate_population.s": dur["harness.evaluate_population"],
        "harness.evaluate_population.calls": calls["harness.evaluate_population"],
        "harness.evaluate.s": dur["harness.evaluate"],
        "harness.evaluate.calls": calls["harness.evaluate"],
        "harness.pool.starts": calls["harness.pool.init"],
        "harness.pool.start_s": dur["harness.pool.init"] + dur["harness.pool.submit"],
        "harness.pool.shutdown_s": dur["harness.pool.shutdown"],
        "network.forward.s": dur["network.forward"],
        "network.forward.calls": calls["network.forward"],
        "network.forward.rows": work_a["network.forward"],
        "network.forward.self_s": selfs.get("network.forward", 0.0),
        "network.policy_init.s": dur["network.policy_init"],
        "network.load_champion.s": dur["network.load_champion"],
        "neural_unit.step.elems": work_a["neural_unit.step"],
        "cartpole.step.s": dur["cartpole.step"],
        "cartpole.step.rows": work_a["cartpole.step"],
        "cartpole.step.live_rows": work_b["cartpole.step"],
        "cartpole.reset.s": dur["cartpole.reset"],
        "optimizers.ga.ask.s": dur["optimizers.ga.ask"],
        "optimizers.ga.tell.s": dur["optimizers.ga.tell"],
        "optimizers.cmaes.ask.s": dur["optimizers.cmaes.ask"],
        "optimizers.cmaes.tell.s": dur["optimizers.cmaes.tell"],
        "optimizers.cmaes.eig.s": dur["optimizers.cmaes.eig"],
        "optimizers.cmaes.eig.calls": calls["optimizers.cmaes.eig"],
        "optimizers.pipeline_step.s": dur["optimizers.pipeline_step"],
        "cli.checkpoint.s": dur["cli.checkpoint"],
        "cli.checkpoint.bytes": work_a["cli.checkpoint"],
        "trace.spans": len(spans),
        **trace_stats,
    }
    for k in range(4):
        values[f"neural_unit.step.L{k}.s"] = layer_s[k]
    for metric in absent:
        values[metric] = 0
    return {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER.items()}
