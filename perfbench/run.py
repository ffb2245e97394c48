"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload plan-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (its spans are written to
``.perfbench_out/``).  Outputs are checked in the same run; the last
line of standard output is one JSON object, and the exit code is 0 only
if every check passed.  README.md next to this file defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread: all load comes from the benchmark's own threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["plan-batch", "serve-zipf", "train-joint"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        # Never measure some other installed copy of the program.
        print(f"perfbench: no program source at {source}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from perfbench.metrics import END_TO_END, PER_LAYER
    from perfbench.workloads import WORKLOADS

    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    names = PER_LAYER if args.trace else END_TO_END
    produced = result.per_layer if args.trace else result.metrics
    if args.trace:
        produced = {name: produced.get(name, 0.0) for name in names}
    if not result.attempted:
        result.fail("no operation was attempted")
    missing = sorted(set(names) - set(produced))
    if missing:
        result.fail(f"metrics not measured: {', '.join(missing)}")
    if result.spans is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        result.spans.write(path)
        result.notes.append(f"{len(result.spans.spans)} spans written to {os.path.relpath(path, ROOT)}")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for note in result.notes:
        print(f"  {note}")
    for name in names:
        if name in produced:
            print(f"  {name:<34} {produced[name]:>14.4f} {names[name]}")
    for what, count in result.failures.items():
        print(f"  FAILED {count}x: {what}")
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(int(result.attempted), 1),
        "failed": int(result.failed),
        "metrics": {name: {"value": float(produced[name]), "unit": names[name]}
                    for name in names if name in produced},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
