"""Compare two sets of benchmark results, parent against change.

Each set is a JSON-lines file written by ``run.py --out`` (or a directory of
them). Collect a set with, for example:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload ga-explore --seed $s --seconds 30 \
            --trace 0 --out parent.jsonl
    done

then run ``python3 perfbench/compare.py parent.jsonl change.jsonl``.

Every workload x metric pair gets its own row with each side's median and
quartiles. End-to-end metrics get a verdict against their bound in
BENCHMARK.json:

- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the median improved by more than the parent's own quartile
  spread and the change wins at least 9 of 10 runs paired by seed;
- ``same``: neither, with both sides' spread inside the bound;
- ``unresolved``: a side's spread is wider than the bound, and the change
  neither beats nor loses to every parent run; or a side has fewer than
  MIN_RUNS runs, or fewer than MIN_RUNS runs pair up by seed.

Runs are paired by seed and, for a seed run more than once, by run order:
the k-th parent run of a seed with the k-th change run of it.

Per-layer metrics from traced runs are listed without a verdict. Last comes
the derived, ungated projection of the 500-generation desk gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

import run

# The desk gate: 500 generations with checkpoint_every=50 and eval_every=50.
DESK_GA_GENS = 100
DESK_CMA_GENS = 400
DESK_PERIODIC_EVALS = 10
DESK_PERIODIC_EPISODES = 64
DESK_GA_CHECKPOINTS = 1  # generation 50; from generation 100 on the runner holds CMA-ES
DESK_CMA_CHECKPOINTS = 9
# Runs each side needs, and pairs by seed, before any verdict is given.
MIN_RUNS = 10


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def by_metric(records, trace):
    """{(workload, metric): [(seed, value), ...]} in record order, for the
    records of one trace mode. Every run is kept, also when seeds repeat."""
    out = defaultdict(list)
    for rec in records:
        if rec["trace"] != trace:
            continue
        for name, m in rec["result"]["metrics"].items():
            out[(rec["workload"], name)].append((rec["seed"], m["value"]))
    return out


def values(runs):
    return [v for _, v in runs]


def pairs(parent, change):
    """(parent, change) value pairs: same seed, then same run order."""
    by_seed = defaultdict(list)
    for seed, v in change:
        by_seed[seed].append(v)
    taken = defaultdict(int)
    out = []
    for seed, v in parent:
        k = taken[seed]
        if k < len(by_seed[seed]):
            out.append((v, by_seed[seed][k]))
            taken[seed] = k + 1
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Verdict for lists of (seed, value), by the rule in the module docstring."""
    p, c = values(parent), values(change)
    paired = pairs(parent, change)
    if min(len(p), len(c), len(paired)) < MIN_RUNS:
        return "unresolved"
    p1, pm, p3 = quartiles(p)
    c1, cm, c3 = quartiles(c)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    p_spread = (p3 - p1) / abs(pm) if pm else 0.0
    c_spread = (c3 - c1) / abs(cm) if cm else 0.0
    all_better = all(sign * x < sign * y for x in c for y in p)
    all_worse = all(sign * x > sign * y for x in c for y in p)
    if max(p_spread, c_spread) > bound:
        if all_better:
            return "better"
        return "worse" if all_worse and worse_by > bound else "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(sign * b < sign * a for a, b in paired)
    if -worse_by > p_spread and wins >= 0.9 * len(paired):
        return "better"
    return "same"


def _fmt(v):
    return f"{v:.4g}"


def _row(cells, widths):
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths))


def compare(parent_records, change_records, bench):
    lines = []
    widths = (14, 34, 40, 40, 8, 6, 10)
    lines.append(_row(("workload", "metric", "parent p50 [q1, q3]",
                       "change p50 [q1, q3]", "change", "bound", "verdict"), widths))
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    for trace, specs in ((0, e2e), (1, None)):
        pa, ch = by_metric(parent_records, trace), by_metric(change_records, trace)
        for key in sorted(set(pa) & set(ch)):
            workload, metric = key
            if specs is not None and metric not in specs:
                continue
            p1, pm, p3 = quartiles(values(pa[key]))
            c1, cm, c3 = quartiles(values(ch[key]))
            rel = f"{(cm - pm) / abs(pm):+.1%}" if pm else "n/a"
            if specs is None:
                bound, v = "-", "-"
            else:
                spec = specs[metric]
                bound = spec["bound"]
                v = verdict(pa[key], ch[key], spec["better"], bound)
            lines.append(_row((
                workload, metric,
                f"{_fmt(pm)} [{_fmt(p1)}, {_fmt(p3)}] n={len(pa[key])}",
                f"{_fmt(cm)} [{_fmt(c1)}, {_fmt(c3)}] n={len(ch[key])}",
                rel, bound, v,
            ), widths))
    lines.append("")
    lines.extend(desk_gate(parent_records, change_records))
    return lines


def desk_projection(records):
    """Projected desk-gate seconds from medians, or None when a part is missing.

    Derived and ungated: one 64-episode periodic eval is taken as 64/100 of a
    100-episode evaluation, and checkpoint time comes from traced runs.
    """
    e2e = by_metric(records, 0)
    traced = by_metric(records, 1)

    def med(table, workload, metric):
        runs = table.get((workload, metric))
        return statistics.median(values(runs)) if runs else None

    ga = med(e2e, "ga-explore", "op_s.p50")
    cma = med(e2e, "cmaes-refine", "op_s.p50")
    ev = med(e2e, "eval-champion", "op_s.p50")
    ck_ga = med(traced, "ga-explore", "cli.checkpoint.s")
    ck_cma = med(traced, "cmaes-refine", "cli.checkpoint.s")
    if None in (ga, cma, ev):
        return None, "needs op_s.p50 of ga-explore, cmaes-refine and eval-champion"
    total = (DESK_GA_GENS * ga + DESK_CMA_GENS * cma
             + DESK_PERIODIC_EVALS * DESK_PERIODIC_EPISODES / 100 * ev + ev)
    note = "checkpoints from traced runs"
    if ck_ga is None or ck_cma is None:
        note = "without checkpoints (no traced runs of ga-explore and cmaes-refine)"
    else:
        total += (DESK_GA_CHECKPOINTS * ck_ga + DESK_CMA_CHECKPOINTS * ck_cma) / run.TRACED_IO
    return total, note


def desk_gate(parent_records, change_records):
    lines = [f"desk gate projection (derived, ungated): {DESK_GA_GENS} GA + "
             f"{DESK_CMA_GENS} CMA-ES generations, {DESK_PERIODIC_EVALS} periodic "
             f"{DESK_PERIODIC_EPISODES}-episode evals, 1 final eval, "
             f"{DESK_GA_CHECKPOINTS + DESK_CMA_CHECKPOINTS} checkpoints"]
    totals = {}
    for side, records in (("parent", parent_records), ("change", change_records)):
        total, note = desk_projection(records)
        totals[side] = total
        shown = "n/a" if total is None else f"{total:.1f} s"
        lines.append(f"  {side}: {shown} ({note})")
    if None not in totals.values():
        lines.append(f"  change/parent: {totals['change'] / totals['parent']:.3f}")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    p.add_argument("parent", help="JSON-lines file or directory of them (parent commit)")
    p.add_argument("change", help="JSON-lines file or directory of them (the change)")
    args = p.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for line in compare(load(args.parent), load(args.change), bench):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
