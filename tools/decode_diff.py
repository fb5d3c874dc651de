#!/usr/bin/env python3
"""Shows whether two revisions detect, dispatch and decode identically.

    python3 tools/decode_diff.py --parent REV --change REV --workdir DIR

REV is anything `git archive` accepts: a commit, a branch, or a tree id
(`git add -A && git write-tree` names an uncommitted change). Each revision
is extracted into DIR/<side>/src (perf_pairs.py's extract(): an extraction
whose tree id matches is reused) and only its `decode_digest` target is built,
Release, into DIR/<side>/build. Both digests then run on the scalar tier and
on the best tier the machine offers (RFDUMP_SIMD=scalar and auto).

decode_digest prints one hash line per run over the detections (in order),
the dispatched intervals and ExactFingerprint (bench/decode_digest.cpp lists
the runs). For each tier this prints IDENTICAL with the line count, or the
first line that differs on each side, which names the run that changed.

Exits 1 when any tier differs or a build or run fails; exits 2 on bad
arguments.
"""

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from perf_pairs import SIDES, extract  # noqa: E402

TIERS = ("scalar", "auto")


def build(src, dest):
    """Configures `src` Release into `dest` and builds decode_digest."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", src, "-B", dest, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", dest, "-j", jobs,
                 "--target", "decode_digest"]):
        r = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
            sys.exit(f"decode_diff: {' '.join(cmd)} exited {r.returncode}")
    return os.path.join(dest, "bench", "decode_digest")


def digest(binary, tier):
    """decode_digest's lines on one SIMD tier."""
    env = dict(os.environ, RFDUMP_SIMD=tier)
    r = subprocess.run([binary], env=env, capture_output=True, text=True,
                       check=False)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-4000:])
        sys.exit(f"decode_diff: {binary} ({tier}) exited {r.returncode}")
    return r.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = os.path.abspath(args.workdir)
    binaries = {}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        dest = os.path.join(workdir, side)
        binaries[side] = build(extract(rev, dest), os.path.join(dest, "build"))

    same = True
    for tier in TIERS:
        parent, change = (digest(binaries[side], tier) for side in SIDES)
        if parent == change:
            print(f"{tier}: IDENTICAL ({len(parent)} lines)")
            continue
        same = False
        print(f"{tier}: DIFFERENT")
        for i in range(max(len(parent), len(change))):
            p = parent[i] if i < len(parent) else "<missing>"
            c = change[i] if i < len(change) else "<missing>"
            if p != c:
                print(f"  line {i + 1}\n  parent: {p}\n  change: {c}")
                break
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
