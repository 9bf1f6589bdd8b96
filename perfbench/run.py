#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --workload all     # every workload, one table
    python3 perfbench/run.py --selftest         # the benchmark's own tests

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library layers under src/ plus the benchmark binary) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild only
what changed. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["match-churn", "match-growth", "serve-durable", "cluster-hop"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(targets):
    """Configures (once) and builds; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: src/ not found next to perfbench/; run from a "
              "full checkout", file=sys.stderr)
        return False
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target"] + targets)
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print(tail, file=sys.stderr)
                print("perfbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return False
    return True


def source_stamp():
    """The commit when this is a git checkout, and a digest of every
    file the benchmark builds from (src/ and perfbench/)."""
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return commit, h.hexdigest()[:16]


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    binary = os.path.join(build_dir(), "perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(build_dir(), "runs")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 1, None
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(out)
        print("perfbench: %s printed no result" % workload, file=sys.stderr)
        return proc.returncode or 1, None
    sys.stdout.write(out)
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 2
        return subprocess.call([os.path.join(build_dir(), "perfbench_selftest")])
    if not args.workload:
        ap.error("--workload is required")
    if not build(["perfbench"]):
        return 2

    commit, digest = source_stamp()
    print("# stamp commit: %s" % commit)
    print("# stamp source_sha256: %s" % digest)
    sys.stdout.flush()

    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               args.trace)
        return code if result is not None else (code or 1)

    # Every workload, then one table and one combined result line.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    worst = 0
    for w in WORKLOADS:
        code, result = run_one(w, args.seed, args.seconds, args.trace)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"]["%s/%s" % (w, name)] = m
        rows.append((w, result))
    print("# ---- summary (seed %d, %d s per workload) ----"
          % (args.seed, args.seconds))
    for w, result in rows:
        print("# %s" % w)
        for name, m in result["metrics"].items():
            print("#   %-34s %16.4f %s" % (name, m["value"], m["unit"]))
        print("#   %-34s %16d" % ("ops", result["attempted"]))
        print("#   %-34s %16d" % ("ops_failed", result["failed"]))
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
