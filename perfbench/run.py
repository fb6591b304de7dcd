#!/usr/bin/env python3
"""End-to-end benchmark of `cube serve` and the `cube` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Builds the `cube` binary and the benchmark driver (release, offline),
then runs one workload and prints its self-report followed by one JSON
result line. `--repeat N` runs the workload N times with seeds
seed..seed+N-1 and prints each metric's median and quartiles across the
runs. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["serve_hot", "serve_cold", "cli_files"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for manifest, extra in [
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "cube-cli", "--bin", "cube"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ]:
        if not os.path.isfile(manifest):
            fail(f"{manifest} is missing; run from a checkout of the repository")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "cube"), os.path.join(release, "perfbench")


def commit_id():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head[:12]
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()[:12]
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def run_once(bench, cube, args, seed, trace):
    work = os.path.join(ROOT, ".bench_work", f"run-{os.getpid()}")
    cmd = [bench, "--cube", cube, "--work", work,
           "--traces", os.path.join(ROOT, ".bench_work", "traces"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--commit", commit_id()]
    if args.corrupt:
        cmd.append("--corrupt")
    if args.write_golden:
        cmd.append("--write-golden")
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done.returncode, done.stdout


def repeat(bench, cube, args):
    values = {}
    units = {}
    for k in range(args.repeat):
        seed = args.seed + k
        code, out = run_once(bench, cube, args, seed, args.trace)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            sys.stdout.write(out)
            fail(f"run with seed {seed} exited {code}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{n} {m['value']:.4g}" for n, m in result["metrics"].items()))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"\n{args.workload}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"{'metric':<26} {'unit':<6} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/median':>10}")
    for name, vs in values.items():
        if len(vs) >= 2:
            q1, med, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = med = q3 = vs[0]
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<26} {units[name]:<6} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} {spread:>10.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--repeat", type=int, default=0,
                   help="run N times with consecutive seeds and print quartiles")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one received byte: the run must fail")
    p.add_argument("--write-golden", action="store_true",
                   help="rewrite perfbench/golden/<workload>.txt (default seed only)")
    args = p.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cube, bench = build(target)
    if args.repeat:
        repeat(bench, cube, args)
        return
    code, out = run_once(bench, cube, args, args.seed, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
