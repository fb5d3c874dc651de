#!/usr/bin/env python3
"""Runs alternating parent/change pairs of the benchmark and compares them.

    python3 tools/perf_pairs.py --parent REV --change REV --workload W \\
        --seed S --pairs N --workdir DIR [--trace 0|1]

REV is anything `git archive` accepts: a commit, a branch, or a tree id
(`git add -A && git write-tree` names an uncommitted change). Each revision
is extracted into DIR/<side>/src and built into its own CARGO_TARGET_DIR,
DIR/<side>/target, by that tree's own perfbench/run.py; an extraction whose
tree id matches is reused, so reruns build incrementally.

N must be even: the side that runs first swaps on every other pair, and a
run's position in its pair moves some metrics (mixed-live's latency modes
follow it), so an odd N would bias the medians. Every measured run lasts
BENCHMARK.json's run_seconds.

For every metric BENCHMARK.json lists (end_to_end with --trace 0, per_layer
with --trace 1) it prints each pair, both medians, how many pairs the
change won and the parent's interquartile range. A metric is marked GAIN
when the change won at least nine tenths of the pairs (a tie counts for
neither side) and its median is better than the parent's by more than the
parent IQR. Otherwise a metric whose parent IQR exceeds its bound is marked
unresolved, whatever its medians say: the runs spread too widely to tell.

Exits 1 when a run fails, when recall, precision or the failed-operation
count differ between the sides in any pair, or when the change's median of
a resolved end-to-end metric is worse than the parent's by more than its
bound; exits 2 on bad arguments.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev, dest):
    """git-archives `rev` into dest/src unless it already holds that tree.

    A different tree empties all of dest, its builds included: a commit's
    files carry the commit's time, which can be older than the objects a
    build left there, so an incremental build would keep stale code."""
    tree = git("rev-parse", "--verify", f"{rev}^{{tree}}")
    src = os.path.join(dest, "src")
    stamp = os.path.join(dest, "tree-id")
    if os.path.exists(stamp) and open(stamp).read().strip() == tree:
        return src
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(src)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", tree],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", src], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"perf_pairs: git archive {rev} failed")
    with open(stamp, "w") as f:
        f.write(tree + "\n")
    return src


def run(side, trees, args, seconds, scale=1.0):
    """One perfbench run of one side; returns its parsed result line."""
    src, target = trees[side]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [sys.executable, os.path.join(src, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", args.trace,
           "--scale", repr(scale)]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True,
                       check=False)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr[-4000:])
        sys.exit(f"perf_pairs: {side} run exited {r.returncode}")
    return json.loads(lines[-1])


def worse_by(metric, parent, change):
    """Fraction by which `change` is worse than `parent` (< 0: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    delta = (change - parent) / abs(parent)
    return -delta if metric["better"] == "higher" else delta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.pairs < 2 or args.pairs % 2:
        ap.error("--pairs must be even and at least 2 (the run order "
                 "alternates, so each side must go first equally often)")

    workdir = os.path.abspath(args.workdir)
    trees = {}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        dest = os.path.join(workdir, side)
        trees[side] = (extract(rev, dest), os.path.join(dest, "target"))
    with open(os.path.join(trees["change"][0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end" if args.trace == "0" else "per_layer"]

    # Build both trees (and warm them) outside the measured pairs.
    for side in SIDES:
        run(side, trees, args, seconds=0.2, scale=0.05)

    results = {side: [] for side in SIDES}
    failed = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            results[side].append(run(side, trees, args, seconds))
        p, c = results["parent"][-1], results["change"][-1]
        failed.append((p.get("failed"), c.get("failed")))
        print(f"pair {i + 1}/{args.pairs}: {order[0]} first, failed "
              f"{p.get('failed')}/{c.get('failed')}", flush=True)

    def values(side, name):
        return [r["metrics"].get(name, {}).get("value") for r in results[side]]

    bad = []
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"{seconds:g} s (parent {args.parent}, change {args.change})")
    print(f"{'metric':34} {'parent med':>11} {'change med':>11} "
          f"{'change':>8} {'wins':>5} {'parent IQR':>11}  verdict")
    for m in metrics:
        name = m["name"]
        pv, cv = values("parent", name), values("change", name)
        if None in pv or None in cv:
            continue
        for i, (a, b) in enumerate(zip(pv, cv)):
            print(f"  {name} pair {i + 1}: parent {a:.6g} change {b:.6g}")
        pm, cm = statistics.median(pv), statistics.median(cv)
        q1, _, q3 = statistics.quantiles(pv, n=4, method="inclusive")
        wins = sum(worse_by(m, a, b) < 0 for a, b in zip(pv, cv))
        delta = worse_by(m, pm, cm)
        bound = m.get("bound")
        verdict = ""
        exact = name.split(".")[0] in ("recall", "precision")
        if exact and pv != cv:
            verdict = "DIFFERS"
            bad.append(f"{name} differs between the sides")
        elif 10 * wins >= 9 * args.pairs and -delta * abs(pm) > q3 - q1:
            verdict = "GAIN"
        elif bound is not None and pm and (q3 - q1) / abs(pm) > bound:
            verdict = "unresolved (parent spread exceeds its bound)"
        elif bound is not None and delta > bound:
            verdict = f"WORSE than its {bound:.0%} bound"
            bad.append(f"{name} median worse by {delta:.1%}")
        change = (cm - pm) / abs(pm) if pm else 0.0
        print(f"{name:34} {pm:11.6g} {cm:11.6g} {change:+8.1%} "
              f"{wins:>2}/{args.pairs} {q3 - q1:11.4g}  {verdict}")
    if any(p != c for p, c in failed):
        bad.append(f"failed-operation counts differ: {failed}")
    for line in bad:
        print(f"FAIL: {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
