"""Record the expected fitness and score digests for the default seed.

Run from the repository root after a change that is meant to alter training
trajectories or evaluation scores (and say so in CHANGES.md):

    python3 perfbench/record_expected.py

It replaces the digests stored under the current BLAS key (library and
thread count) in expected.json and leaves the other keys alone. Run it once
more under ``OPENBLAS_NUM_THREADS=1`` to refresh that key too.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    mods, _ = run.import_package()
    import envinfo
    import workloads

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    seed = expected["default_seed"]
    key = envinfo.blas_key()
    table = {}
    for name in ("ga-explore", "cmaes-refine", "eval-champion"):
        spec = workloads.WORKLOADS[name]
        wl = workloads.build(name, mods, run.ROOT, seed)
        if spec.stage == "eval":
            scores = wl.op()
            ref = expected["eval_reference"]
            if (wl.last.mean, wl.last.std) != (ref["mean"], ref["std"]):
                sys.exit(f"champion scored {wl.last.mean!r} +/- {wl.last.std!r}, "
                         f"not the reference; refusing to record")
            table[spec.stage] = run.digest(scores)
        else:
            # One digest per generation of the cycle that runs repeat.
            table[spec.stage] = [run.digest(wl.op()) for _ in range(spec.cycle)]
        print(f"{name}: recorded", flush=True)
    expected["digests"][key] = table
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {path} for {key}")


if __name__ == "__main__":
    main()
