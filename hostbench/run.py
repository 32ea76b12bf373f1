#!/usr/bin/env python3
"""Host-speed benchmark of silicon-bridge: build, run one workload, report.

    python3 hostbench/run.py --workload ooo-full|inorder-full|sampled|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
library from src/ plus the two drivers (hostbench, hostbench_traced) under
$CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Build output goes to stderr.

--trace 0 runs the untraced driver for --seconds and reports the end-to-end
metrics. setup_s is the median, over several launches, of the CPU time from
the driver's first code (its earliest static initialiser) to the end of the
workload's set-up.

--trace 1 runs one unit of fixed work untraced (a pass of the cells, or the
serve workload's local re-execution check), then the traced driver for
--seconds, corrected with that baseline, and reports the per-layer metrics
plus tracing.overhead (traced / untraced wall time of the unit). Both runs
must produce the same digest of simulated results.

The last stdout line is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
A run that cannot build or execute exits non-zero without printing one.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ooo-full", "inorder-full", "sampled", "serve")
SETUP_LAUNCHES = 21
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    # One CMake tree per source tree: a shared target directory must not
    # hand one checkout's cache to another.
    tag = hashlib.sha1(HERE.encode()).hexdigest()[:10]
    return os.path.join(base, f"hostbench-{tag}")


def build(bdir):
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target",
                    "hostbench", "hostbench_traced"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def missing_layers(bdir):
    """Metric prefixes of wrapped entry points that some object listed for
    them in wrapped_symbols.txt no longer references as undefined."""
    lib = os.path.join(bdir, "bridge", "libbridge.a")
    nm = subprocess.run(["nm", "-A", lib], check=True, capture_output=True,
                        text=True).stdout
    undefined = set()  # (object, symbol)
    for line in nm.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[-2] == "U":
            # "<archive>:<object>:" as the first field
            obj = parts[0].rstrip(":").rsplit(":", 1)[-1]
            undefined.add((obj, parts[-1]))
    missing = set()
    with open(os.path.join(HERE, "wrapped_symbols.txt")) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            symbol, layer, objects = line.split()
            for obj in objects.split(","):
                if (obj, symbol) not in undefined:
                    log(f"hostbench: entry point {symbol} ({layer}) is "
                        f"missing: {obj} no longer calls it")
                    missing.add(layer)
    return missing


def pin_to_one_cpu():
    """Run on the CPU the driver pins itself to (the last one allowed), so
    that the drivers start there instead of migrating to it during set-up:
    a migration took 1-10 ms when that CPU was busy."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child_env():
    # The library reads BRIDGE_* knobs (chaos, sampling, jobs, ...); the
    # benchmark pins its own configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("BRIDGE_")}


def run_driver(binary, args, cwd):
    proc = subprocess.run([binary] + args, cwd=cwd, env=child_env(),
                          capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{os.path.basename(binary)} exited with "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(binary, workload, seed, cwd):
    """Median over launches of the CPU time of the driver's own set-up."""
    samples = [run_driver(binary, ["--workload", workload, "--seed", str(seed),
                                   "--setup-only"], cwd)["setup_s"]
               for _ in range(SETUP_LAUNCHES)]
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    try:
        build(bdir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"hostbench: build failed: {e}")
        return 1
    pin_to_one_cpu()
    untraced = os.path.join(bdir, "hostbench")
    traced = os.path.join(bdir, "hostbench_traced")
    scratch = os.path.join(bdir, "run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace == 0:
            setup = setup_seconds(untraced, args.workload, args.seed, scratch)
            out = run_driver(untraced, common + ["--seconds", str(args.seconds)],
                             scratch)
            runs = [out]
            metrics = dict(out["metrics"])
            metrics["setup_s"] = {"value": setup, "unit": "s"}
        else:
            missing = missing_layers(bdir)
            sim = args.workload != "serve"
            base = run_driver(untraced, common + (
                ["--seconds", "0"] if sim else
                ["--seconds", str(max(1.0, args.seconds / 3))]), scratch)
            baseline = base["unit_wall_s"] if sim else base["check_wall_s"]
            spans = os.path.join(bdir, "run",
                                 f"spans-{args.workload}-{args.seed}.tsv")
            out = run_driver(traced, common + [
                "--seconds", str(args.seconds), "--baseline-s", str(baseline),
                "--spans", spans], scratch)
            runs = [base, out]
            if out["digest"] != base["digest"]:
                out["correct"] = False
                out["errors"].append(f"traced digest {out['digest']} != "
                                     f"untraced {base['digest']}")
            metrics = {k: v for k, v in out["per_layer"].items()
                       if not any(k.startswith(m) for m in missing)}
            metrics["tracing.overhead"] = {
                "value": out["unit_wall_s"] / base["unit_wall_s"],
                "unit": "ratio"}
            log(f"span cost (ns): {out['span_cost_ns']}; cell spans: {spans}")
    except (RuntimeError, subprocess.SubprocessError, ValueError,
            KeyError) as e:
        log(f"hostbench: {e}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for r in runs:
        for e in r["errors"]:
            log(f"hostbench: CHECK FAILED ({r['workload']}): {e}")
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
