#!/usr/bin/env python3
"""Build the benchmark from the repository's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke [--workload <name>] [--seconds <s>]

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench; later calls only
check that the build is current. The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Build output goes to stderr. --trace 1 runs the traced binary, which
prints the per-layer metrics and writes a Chrome trace-event file under
.bench_build/perfbench/traces/.

--smoke runs each workload (or the one named) with one result perturbed on
purpose and succeeds only if every run reports failed > 0.

Exit status: 0 when a result line was printed (its "correct" field carries
the verdict), 2 on bad arguments or when the sources are missing, 1 on a
failed build or run.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("apsp_exact", "oracle_build", "query_serve", "lossy_sssp")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "apsp.hpp")):
        fail(2, "library sources not found under %s/src" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(1, "build failed: " + " ".join(cmd))


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library and benchmark sources, so a stamp names the
    code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, corrupt=False):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    work = os.path.join(BUILD, "work")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    exe = os.path.join(BUILD, "perfbench_traced" if trace else "perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", work,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if trace:
        cmd += ["--trace-file",
                os.path.join(traces, "%s-%d.trace.json" % (workload, seed))]
    if corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, "%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def smoke(workloads, seconds):
    caught = True
    for w in workloads:
        code, lines = run_once(w, 1, seconds, False, corrupt=True)
        result = parse_result(lines) if code == 0 else None
        ok = (result is not None and result["failed"] > 0
              and result["correct"] is False)
        caught &= ok
        print("smoke %-13s %s" % (w, "caught" if ok else "MISSED"))
    return 0 if caught else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")
    if args.seed < 0:
        fail(2, "--seed must not be negative")
    if not args.smoke and args.workload is None:
        fail(2, "--workload is required")

    build()
    if args.smoke:
        sys.exit(smoke([args.workload] if args.workload else WORKLOADS,
                       min(args.seconds, 3.0)))
    code, lines = run_once(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    if code != 0 or parse_result(lines) is None:
        fail(1, "%s produced no result (exit %d)" % (args.workload, code))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
