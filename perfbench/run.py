"""evounits benchmark: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload ga-explore --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it sets the workload up, times operations (GA or CMA-ES
generations, or 100-episode evaluations) until ``--seconds`` have passed,
then times several whole set-ups, each in a fresh interpreter, and reports
the end-to-end metrics. With ``--trace 1`` it runs a fixed number of
operations twice on fresh set-ups, first untraced and then with spans around
every module boundary, and reports the per-layer metrics plus the tracing
overhead. Either way every output is checked, and the last line of standard
output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import uuid
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
MODULES = ("architecture", "cartpole", "cli", "config", "genome", "harness",
           "network", "optimizers")
# Set-ups per untraced run, each in a fresh interpreter; set-up time is
# their median.
SETUPS = 5
# Champion loads and checkpoint writes timed at the end of a traced run.
TRACED_IO = 3


def import_package():
    """Import the package modules from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "evounits" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src / 'evounits'}")
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"evounits.{m}") for m in MODULES}
    pkg = Path(sys.modules["evounits"].__file__).resolve().parent
    if pkg != (src / "evounits").resolve():
        raise SystemExit(f"perfbench: imported evounits from {pkg}, not {src}")
    return mods, pkg


def fresh_setup_s(workload, seed):
    """One whole set-up in a fresh interpreter, as a new process pays it:
    package import, champion load, runner build and warm-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def digest(values):
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


class Checks:
    """Correctness checks of one run; each failure is charged to an operation."""

    def __init__(self, expected, blas_key, spec, seed):
        self.failures = []  # (op index, message)
        self.unchecked = 0
        table = expected["digests"].get(blas_key, {})
        self.default_seed = seed == expected["default_seed"]
        self.digests = table.get(spec.stage) if self.default_seed else None
        self.cycle = spec.cycle
        self.eval_reference = expected["eval_reference"] if spec.stage == "eval" else None
        self._first_scores = None
        self._cycle_digests = {}  # generation of the cycle -> its first digest

    def fail(self, op, message):
        self.failures.append((op, message))

    def op(self, charge, i, values, report=None):
        """Check operation ``i`` of a fresh set-up; failures go to ``charge``.

        Operation ``i`` repeats generation ``i % cycle``, so it is compared
        with that generation's digest, and for any seed with the first run of
        that generation.
        """
        import numpy as np

        if self.cycle:
            i %= self.cycle
        if not np.all(np.isfinite(values)):
            self.fail(charge, "non-finite fitness or score")
        d = digest(values)
        if self.cycle and self._cycle_digests.setdefault(i, d) != d:
            self.fail(charge, f"generation {i} of the cycle gave different fitness on repeat")
        if self.digests is None:
            self.unchecked += 1
        else:
            want = self.digests if isinstance(self.digests, str) else (
                self.digests[i] if i < len(self.digests) else None
            )
            if want is None:
                self.fail(charge, f"no committed digest for operation {i}")
            elif d != want:
                self.fail(charge, f"digest {d[:12]} != expected {want[:12]}")
        if self.eval_reference is not None:
            if self._first_scores is None:
                self._first_scores = np.array(values)
            elif not np.array_equal(values, self._first_scores):
                self.fail(charge, "repeated evaluation gave different scores")
            if self.default_seed and (
                report.mean != self.eval_reference["mean"]
                or report.std != self.eval_reference["std"]
            ):
                self.fail(charge, f"champion scored {report.mean!r} +/- {report.std!r}, "
                             f"reference {self.eval_reference['mean']!r} "
                             f"+/- {self.eval_reference['std']!r}")
        return d

    @property
    def failed_ops(self):
        return len({op for op, _ in self.failures})


def run_ops(wl, checks, *, seconds=None, count=None, counter=None, first=0):
    """Time operations until ``seconds`` pass or ``count`` are done, whichever
    comes first; either may be None.

    Returns per-operation (seconds, live steps, digest). An operation that
    raises ends the loop and is charged as failed.
    """
    ops = []
    deadline = perf_counter() + seconds if seconds is not None else None
    while True:
        i = first + len(ops)
        live0 = counter.read()[1]
        t0 = perf_counter()
        try:
            values = wl.op()
        except Exception as exc:  # the run must report, not crash
            checks.fail(i, f"operation raised {type(exc).__name__}: {exc}")
            ops.append((perf_counter() - t0, 0, None))
            break
        dt = perf_counter() - t0
        d = checks.op(i, len(ops), values, wl.last)
        ops.append((dt, counter.read()[1] - live0, d))
        if count is not None and len(ops) >= count:
            break
        if deadline is not None and perf_counter() >= deadline:
            break
    return ops


def checkpoint_bytes(wl):
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / f"checkpoint-{os.getpid()}"
    try:
        wl.checkpoint(path)
        return path.stat().st_size
    finally:
        path.unlink(missing_ok=True)


def peak_rss_mb():
    """Peak resident set of this process plus the largest reaped child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def end_to_end(ops, cycle, setup_s, ckpt_bytes, rss_mb, attempted, failed):
    import numpy as np

    times = [dt for dt, _, _ in ops]
    p50 = float(np.percentile(times, 50))
    # Live steps per operation of one cycle, per median operation time. A
    # repeated generation repeats its live steps (its fitness repeats
    # bitwise, which is checked), so the first cycle gives the mean over the
    # cycle however many operations a run reached. The median time, because
    # one operation slowed by the host should not decide it.
    first = ops[:cycle] if cycle else ops
    live_per_op = sum(n for _, n, _ in first) / len(first)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s.p50": {"value": p50, "unit": "s"},
        "op_s.p90": {"value": float(np.percentile(times, 90)), "unit": "s"},
        "live_steps_per_s": {"value": live_per_op / p50, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "checkpoint_mb": {"value": ckpt_bytes / 1e6, "unit": "MB"},
        "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
    }


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the seed with committed digests)")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="append the full record (result, environment, digests) "
                        "as one JSON line to this file, for compare.py")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up once, print the seconds since "
                        "start-up and exit (used to time set-up)")
    return p.parse_args(argv)


def main(argv=None):
    t_start = perf_counter()
    mods, pkg = import_package()
    import envinfo
    import tracing
    import workloads

    args = parse_args(argv)
    expected = json.loads((HERE / "expected.json").read_text())
    seed = expected["default_seed"] if args.seed is None else args.seed
    spec = workloads.WORKLOADS[args.workload]
    if spec.blas_threads is not None:
        envinfo.set_blas_threads(spec.blas_threads)
    if args.setup_only:
        workloads.build(args.workload, mods, ROOT, seed)
        print(perf_counter() - t_start)
        return 0
    key = envinfo.blas_key()
    checks = Checks(expected, key, spec, seed)
    OUT_DIR.mkdir(exist_ok=True)

    counter = tracing.StepCounter()
    tracer = tracing.Tracer(run_id=uuid.uuid4().hex) if args.trace else None
    missing = tracing.install(mods, counter, tracer)

    def build():
        wl = workloads.build(args.workload, mods, ROOT, seed)
        if not wl.handover_ok:
            checks.fail(0, "CMA-ES did not start at the champion handed over by the GA stage")
        return wl

    if args.trace == 0:
        wl = build()
        ops = run_ops(wl, checks, seconds=args.seconds, counter=counter)
        if spec.workers > 1 and wl.last is not None and not wl.serial_matches():
            checks.fail(len(ops) - 1, "pool fitness differs from one-worker fitness")
        ckpt_bytes = checkpoint_bytes(wl)
        rss_mb = peak_rss_mb()  # before the set-up timings start child processes
        setups = [fresh_setup_s(args.workload, seed) for _ in range(SETUPS)]
        setup_s = statistics.median(setups)
        attempted = len(ops)
        metrics = end_to_end(ops, spec.cycle, setup_s, ckpt_bytes, rss_mb, attempted,
                             checks.failed_ops)
        absent = []
    else:
        n_ops = max(1, round(args.seconds / (2 * spec.nominal_op_s)))
        plain = run_ops(build(), checks, count=n_ops, counter=counter)
        wl = build()
        steps0 = counter.read()
        tracer.active = True
        traced = run_ops(wl, checks, count=n_ops, counter=counter, first=len(plain))
        steps1 = counter.read()
        for _ in range(TRACED_IO):
            mods["network"].load_champion(ROOT / workloads.CHAMPION)
            checkpoint_bytes(wl)
        tracer.active = False
        for i, (a, b) in enumerate(zip(plain, traced)):
            if a[2] != b[2]:
                checks.fail(len(plain) + i, "traced operation differs from untraced one")
        if spec.workers > 1 and wl.last is not None and not wl.serial_matches():
            checks.fail(len(plain) + len(traced) - 1,
                        "pool fitness differs from one-worker fitness")
        ops = plain + traced
        setups = []
        attempted = len(ops)
        # Medians, so that one slow operation on either side does not decide it.
        plain_s = statistics.median(dt for dt, _, _ in plain)
        traced_s = statistics.median(dt for dt, _, _ in traced)
        absent = tracing.absent_metrics(missing, spec.workers)
        metrics = tracing.per_layer(
            tracer.spans, steps1[0] - steps0[0], steps1[1] - steps0[1], absent,
            {
                "trace.ops": len(traced),
                "trace.overhead_s": traced_s - plain_s,
                "trace.overhead_frac": (traced_s - plain_s) / plain_s,
            },
        )
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{seed}.json"
        tracer.write(trace_path)
        print(f"spans: {trace_path}")

    failed = checks.failed_ops
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = envinfo.environment(ROOT, pkg)
    digests = [d for _, _, d in ops]
    print(f"workload: {args.workload} seed={seed} trace={args.trace} blas={key}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("digests: " + json.dumps(digests))
    if setups:
        print("set-ups (s): " + json.dumps(setups))
    print(f"checks: {len(ops) - checks.unchecked} of {len(ops)} digests compared "
          f"with committed values, {len(checks.failures)} failure(s)")
    for op, message in checks.failures:
        print(f"check failed: op {op}: {message}")
    if absent:
        print("absent per-layer metrics (reported as 0): " + ", ".join(absent))
    if args.out:
        record = {
            "workload": args.workload, "seed": seed, "trace": args.trace,
            "seconds": args.seconds, "env": env, "digests": digests,
            "op_s": [dt for dt, _, _ in ops], "setups_s": setups, "absent": absent,
            "failures": [m for _, m in checks.failures], "result": result,
        }
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
