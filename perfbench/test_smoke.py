"""Smoke test of the benchmark itself (about two minutes on two cores).

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs for one short operation, untraced and traced, with its
correctness checks against the committed digests. The checks, the absent
per-layer reporting and the compare verdicts are also fed bad input directly.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_operation_passes_checks(workload, trace, tmp_path):
    out = tmp_path / "results.jsonl"
    proc = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] == (1 if trace == 0 else 2)
    section = "end_to_end" if trace == 0 else "per_layer"
    assert {m["name"]: m["unit"] for m in BENCH[section]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    record = json.loads(out.read_text())
    assert record["failures"] == []
    # The default seed has committed digests for every operation run here.
    n = result["attempted"]
    assert f"checks: {n} of {n} digests compared" in proc.stdout
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if trace == 0:
        assert all(v > 0 for v in metrics.values()), metrics
    elif workload == "ga-pool":
        assert "network.forward.s" in record["absent"]
        assert metrics["harness.pool.starts"] == 1
        assert 0 < metrics["harness.live_fraction"] < 1
    else:
        assert record["absent"] == []
        assert metrics["network.forward.calls"] > 0
        assert metrics["optimizers.cmaes.eig.calls"] == (workload == "cmaes-refine")


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "eval-champion", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _checks(stage, digests, seed=EXPECTED["default_seed"]):
    expected = dict(EXPECTED, digests={"blas:1": digests})
    spec = workloads.Spec(stage, 1, 1.0, None)
    return run.Checks(expected, "blas:1", spec, seed)


def test_checks_charge_digest_mismatch_missing_digest_and_nonfinite():
    values = np.array([1.0, 2.0])
    digests = {"ga": [run.digest(values), "0" * 64]}
    checks = _checks("ga", digests)
    checks.op(0, 0, values)
    assert checks.failed_ops == 0
    checks.op(1, 1, values)  # wrong digest
    checks.op(2, 2, values)  # past the committed list
    checks.op(3, 0, np.array([np.nan, 1.0]))
    assert checks.failed_ops == 3
    assert checks.unchecked == 0
    other = _checks("ga", digests, seed=EXPECTED["default_seed"] + 1)
    other.op(0, 5, values)  # no committed digests for this seed: printed only
    assert (other.failed_ops, other.unchecked) == (0, 1)


def test_checks_compare_repeated_generations_with_their_cycle_digest():
    a, b = np.array([1.0]), np.array([2.0])
    expected = dict(EXPECTED, digests={"blas:1": {"ga": [run.digest(a), run.digest(b)]}})
    checks = run.Checks(expected, "blas:1", workloads.Spec("ga", 1, 1.0, 2),
                        EXPECTED["default_seed"])
    for i, values in enumerate([a, b, a, b, a]):
        checks.op(i, i, values)
    assert checks.failed_ops == 0
    checks.op(5, 5, a)  # generation 1 of the cycle must give b
    assert checks.failed_ops == 1
    other = run.Checks(expected, "blas:1", workloads.Spec("ga", 1, 1.0, 2),
                       EXPECTED["default_seed"] + 1)
    for i, values in enumerate([a, b, a, a]):  # no committed digests: repeats only
        other.op(i, i, values)
    assert (other.failed_ops, other.unchecked) == (1, 4)


def test_cycles_are_covered_by_committed_digests():
    for table in EXPECTED["digests"].values():
        for spec in workloads.WORKLOADS.values():
            if spec.cycle is not None and spec.stage in table:
                assert len(table[spec.stage]) == spec.cycle


def test_runner_restarts_after_its_cycle():
    mods, _ = run.import_package()
    spec = dataclasses.replace(workloads.WORKLOADS["cmaes-refine"], cycle=2)
    wl = workloads.PipelineWorkload(mods, ROOT, EXPECTED["default_seed"], spec)
    first, second, third = (wl.op().copy() for _ in range(3))
    assert not np.array_equal(first, second)
    assert np.array_equal(first, third)


def test_checks_require_bitwise_reference_eval():
    ref = EXPECTED["eval_reference"]
    checks = _checks("eval", {"eval": run.digest(np.ones(2))})
    good = types.SimpleNamespace(mean=ref["mean"], std=ref["std"])
    checks.op(0, 0, np.ones(2), good)
    assert checks.failed_ops == 0
    off = types.SimpleNamespace(mean=np.nextafter(ref["mean"], 0), std=ref["std"])
    checks.op(1, 1, np.ones(2), off)
    checks.op(2, 2, np.full(2, 2.0), good)  # differs from the first evaluation
    assert checks.failed_ops == 2


def test_missing_wrap_targets_are_reported_absent():
    modules = {m: types.SimpleNamespace() for m in
               ("harness", "network", "cartpole", "optimizers", "cli")}
    missing = tracing.install(modules, tracing.StepCounter(), tracing.Tracer("t"))
    absent = tracing.absent_metrics(missing, workers=1)
    assert set(absent) == {m for m in tracing.PER_LAYER if not m.startswith("trace.")}
    metrics = tracing.per_layer([], 0, 0, absent, {
        "trace.ops": 1, "trace.overhead_s": 0.0, "trace.overhead_frac": 0.0,
    })
    assert list(metrics) == list(tracing.PER_LAYER)
    assert all(metrics[m]["value"] == 0 for m in absent)


def test_compare_verdicts_and_desk_gate():
    def scaled(runs, k):
        return [(s, v * k) for s, v in runs]

    parent = [(s, 1.0 + 0.01 * (s % 3)) for s in range(10)]
    assert compare.verdict(parent, scaled(parent, 1.5), "lower", 0.1) == "worse"
    assert compare.verdict(parent, scaled(parent, 1.01), "lower", 0.1) == "same"
    assert compare.verdict(parent, scaled(parent, 0.7), "lower", 0.1) == "better"
    wide = [(s, 1.0 + s) for s in range(10)]
    assert compare.verdict(wide, scaled(wide, 0.9), "lower", 0.1) == "unresolved"
    # Runs that share a seed are all kept and paired in run order.
    same_seed = [(1, v) for _, v in parent]
    assert compare.verdict(same_seed, scaled(same_seed, 0.7), "lower", 0.1) == "better"
    # Too few runs, or too few pairs by seed, give no verdict.
    assert compare.verdict(parent[:1], scaled(parent[:1], 2.0), "lower", 0.1) == "unresolved"
    other_seeds = [(s + 100, v) for s, v in parent]
    assert compare.verdict(parent, scaled(other_seeds, 0.7), "lower", 0.1) == "unresolved"

    def rec(workload, value):
        return {"workload": workload, "seed": 1, "trace": 0,
                "result": {"metrics": {"op_s.p50": {"value": value, "unit": "s"}}}}

    records = [rec("ga-explore", 3.0), rec("cmaes-refine", 1.0), rec("eval-champion", 0.5)]
    lines = compare.compare(records, records, BENCH)
    assert sum("op_s.p50" in line for line in lines) == 3
    total, _ = compare.desk_projection(records)
    assert total == pytest.approx(100 * 3.0 + 400 * 1.0 + 10 * 0.64 * 0.5 + 0.5)
