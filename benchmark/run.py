#!/usr/bin/env python3
"""Entry point of the repo benchmark.

One run (the contract `BENCHMARK.json` names; builds first, then runs):

    python3 benchmark/run.py --workload tcp_rest --seed 7 --seconds 20 --trace 0

`--trace 0` runs the end-to-end harness, `--trace 1` the traced run; both
print one JSON object as the last line of stdout.  `--quick` shrinks the
populations and the phases (same code paths, meaningless numbers).

A set of runs, one result file per workload (`<out>/<workload>.jsonl`):

    python3 benchmark/run.py suite --out benchmark/out/a --runs 10

Two sets compared against the bounds in `BENCHMARK.json`:

    python3 benchmark/run.py compare benchmark/out/a benchmark/out/b
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    """Where cargo builds: the driver's CARGO_TARGET_DIR, else our own."""
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))


def build():
    """Builds both benchmark packages and `rebeca-node` from source.

    Two cargo invocations because they are two workspaces: the benchmark's
    own (path dependencies on the product) and the product's (the CLI under
    test).  Both land in one target directory.  A no-op when up to date.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in (
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "rebeca-net", "--bin", "rebeca-node"]),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest] + extra
        # Build chatter goes to stderr: stdout carries the result line only.
        subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr, check=True)
    return os.path.join(target_dir(), "release")


def run_once(bin_dir, workload, seed, seconds, trace, quick=False, capture=False):
    binary = os.path.join(bin_dir, "traced" if trace else "harness")
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--trace", "1" if trace else "0",
        "--node-bin", os.path.join(bin_dir, "rebeca-node"),
        "--out-dir", os.path.join(HERE, "out"),
    ]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if quick:
        cmd.append("--quick")
    # The run's own 180 s budget, enforced from outside as well.
    return subprocess.run(
        cmd, cwd=ROOT, timeout=175, stdout=subprocess.PIPE if capture else None, text=True
    )


def cmd_run(args):
    bin_dir = build()
    return run_once(bin_dir, args.workload, args.seed, args.seconds, args.trace == 1, args.quick).returncode


def cmd_suite(args):
    bench = spec()
    bin_dir = build()
    os.makedirs(args.out, exist_ok=True)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    for workload in workloads:
        path = os.path.join(args.out, workload + ".jsonl")
        with open(path, "a") as out:
            for k in range(args.runs):
                seed = args.first_seed + k
                done = run_once(bin_dir, workload, seed, seconds, args.trace == 1, args.quick, capture=True)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: FAILED (exit {done.returncode})", file=sys.stderr)
                    return 1
                result = json.loads(lines[-1])
                result.update(workload=workload, seed=seed, trace=args.trace)
                out.write(json.dumps(result) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    print_spreads(load_set(args.out), bench)
    return 0


def load_set(path):
    """{workload: {metric: [values...]}} from a directory of .jsonl files."""
    runs = {}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(path, name)) as f:
            for line in f:
                result = json.loads(line)
                metrics = runs.setdefault(result["workload"], {})
                for metric, m in result["metrics"].items():
                    metrics.setdefault(metric, []).append(m["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def print_spreads(runs, bench):
    """Run-to-run spread (IQR / median) of every end-to-end metric."""
    print(f"{'workload':<14}{'metric':<20}{'median':>14}{'spread':>9}{'bound':>8}  steady")
    for workload, metrics in runs.items():
        for m in bench["end_to_end"]:
            values = metrics.get(m["name"])
            if not values:
                continue
            s = spread(values)
            steady = "yes" if s < m["bound"] / 3 else ("ok" if s <= m["bound"] else "NO")
            print(f"{workload:<14}{m['name']:<20}{statistics.median(values):>14.4f}{s:>9.3f}{m['bound']:>8.2f}  {steady}")


def cmd_compare(args):
    bench = spec()
    a, b = load_set(args.a), load_set(args.b)
    header = f"{'workload':<14}{'metric':<20}{'A q1/med/q3':>36}{'B q1/med/q3':>36}{'diff':>9}{'bound':>7}  verdict"
    print(header)
    worse = 0
    for workload in a:
        for m in bench["end_to_end"]:
            va, vb = a[workload].get(m["name"]), b.get(workload, {}).get(m["name"])
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            lower = m["better"] == "lower"
            # Relative difference of the medians, positive = B is worse.
            diff = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
            b_always_better = max(vb) < min(va) if lower else min(vb) > max(va)
            if diff > m["bound"]:
                verdict = "worse"
                worse += 1
            elif max(spread(va), spread(vb)) > m["bound"] and not b_always_better:
                # The runs of one side disagree by more than the bound:
                # "no change" cannot be told from "regression".
                verdict = "unresolved"
            else:
                verdict = "within"
            fmt = lambda q: f"{q[0]:>11.3f}/{q[1]:>11.3f}/{q[2]:>11.3f}"
            print(f"{workload:<14}{m['name']:<20}{fmt(qa)}{fmt(qb)}{diff:>+9.3f}{m['bound']:>7.2f}  {verdict}")
    return 1 if worse else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "suite":
        p = argparse.ArgumentParser(prog="run.py suite")
        p.add_argument("--out", required=True, help="directory of result files (appended to)")
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=float)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--quick", action="store_true")
        p.add_argument("--workloads", nargs="*")
        return cmd_suite(p.parse_args(argv[1:]))
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    return cmd_run(p.parse_args(argv))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        sys.exit(3)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: run exceeded its time budget: {e}", file=sys.stderr)
        sys.exit(4)
