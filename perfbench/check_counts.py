"""Check that the traced run's counts repeat exactly for one seed.

Usage: ``python3 perfbench/check_counts.py [--seed N] [--seconds S] [WORKLOAD ...]``

Runs ``run.py --trace 1`` twice per workload with the same seed and
compares every count: calls, lookups, DNF cubes, simplex kernel counts,
memo and result-cache hit ratios and the incremental reuse share.  Prints
each count with both values and exits 1 when any differs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def is_count(name):
    """The metrics that must repeat exactly: everything counted, no times."""
    return (
        name.endswith((".calls", ".lookups", ".cubes", ".hit_ratio", ".reused_share", ".procedures"))
        or name.startswith(("polyhedra.simplex.", "service.rejected_429", "service.deadline_504"))
    )


def traced(workload, seed, seconds):
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    output = subprocess.run(command, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    if output.returncode != 0:
        raise SystemExit(f"{workload}: run.py failed\n{output.stderr[-2000:]}")
    metrics = json.loads(output.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if is_count(name)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("workloads", nargs="*", default=["cold-paper", "warm-edit", "serve-hit"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27)
    arguments = parser.parse_args(argv)
    differing = []
    for workload in arguments.workloads:
        first = traced(workload, arguments.seed, arguments.seconds)
        second = traced(workload, arguments.seed, arguments.seconds)
        for name in sorted(first):
            same = first[name] == second.get(name)
            print(f"{workload:10s} {name:48s} {first[name]!s:>22} {second.get(name)!s:>22} {'' if same else 'DIFFERS'}")
            if not same:
                differing.append(f"{workload} {name}")
    print(f"{len(differing)} counts differ between two traced runs" + "".join(f"\n  {d}" for d in differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
