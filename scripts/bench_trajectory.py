#!/usr/bin/env python3
"""Regenerate BENCH_sim.json and BENCH_serve.json from hostbench.

    python3 scripts/bench_trajectory.py

Runs `python3 hostbench/run.py --workload W` from the repository root for
each of the four workloads, one after another, at hostbench's defaults
(seed 1, 20 s, untraced). BENCH_sim.json gets ooo-full, inorder-full and
sampled; BENCH_serve.json gets serve. Each workload records the command
that produced it and the correct, attempted, failed and metrics fields of
its result line. If any run exits non-zero, is not correct or has a failed
operation, nothing is written and the script exits non-zero.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = {
    "BENCH_sim.json": ("ooo-full", "inorder-full", "sampled"),
    "BENCH_serve.json": ("serve",),
}


def run(workload):
    cmd = ["python3", "hostbench/run.py", "--workload", workload]
    command = " ".join(cmd)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{command} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        raise RuntimeError(f"{command}: correct {result['correct']}, "
                           f"failed {result['failed']}")
    return {"command": command,
            **{k: result[k]
               for k in ("correct", "attempted", "failed", "metrics")}}


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    try:
        results = {w: run(w) for ws in FILES.values() for w in ws}
    except (RuntimeError, ValueError, KeyError) as e:
        print(f"bench_trajectory: {e}; nothing written", file=sys.stderr)
        return 1
    for name, workloads in FILES.items():
        with open(os.path.join(ROOT, name), "w") as f:
            json.dump({"bench": "hostbench",
                       "workloads": {w: results[w] for w in workloads}},
                      f, indent=2)
            f.write("\n")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
