#!/usr/bin/env python3
"""Build leafbench from source and run it.

    python3 leafbench/run.py --workload fleet_leaf [--seed 42] [--seconds 16] [--trace 0|1]
    python3 leafbench/run.py all [--seed 42] [--trace]      # every workload, one process each
    python3 leafbench/run.py --smoke all                    # shrunk, every output check
    python3 leafbench/run.py --compare A.json B.json        # two result files side by side

The benchmark is configured and built under .bench_build/leafbench at the
repository root on first use (about a minute on four cores), then rebuilt
incrementally.
Each run writes a result file with a host and build header to
.bench_build/results/.  The last line printed for a single workload is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "leafbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKDIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["fleet_leaf", "fleet_triggered", "serve_loopback", "serve_mixed_tcp"]
RUN_TIMEOUT_S = 170
# Header keys that describe the host and build: wall-clock numbers from
# results that differ in any of them are not comparable.
HOST_KEYS = ["nproc", "cpu_model", "compiler", "flags", "build_type", "simd_isa",
             "obs_compiled_in", "LEAF_SIMD", "threads", "scale"]


def log(msg):
    print("leafbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the repository sources (CMakeLists.txt, src/) are not next to " + HERE)
        sys.exit(2)
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        log("configuring: " + " ".join(cmd))
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "leafbench", "-j", jobs],
                   check=True, stdout=sys.stderr, cwd=ROOT, env=env)
    return os.path.join(BUILD, "leafbench")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_workload(binary, args, workload, capture=False):
    os.makedirs(RESULTS, exist_ok=True)
    os.makedirs(WORKDIR, exist_ok=True)
    tag = "smoke" if args.smoke else "trace%s" % args.trace
    out = os.path.join(RESULTS, "%s-seed%d-%s.json" % (workload, args.seed, tag))
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", WORKDIR, "--out", out, "--commit", args.commit]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return 3, ""
    return proc.returncode, proc.stdout or ""


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    differ = [k for k in HOST_KEYS if a["header"].get(k) != b["header"].get(k)]
    if differ:
        print("WARNING: the results come from different hosts or builds (%s); "
              "wall-clock differences are not comparable." % ", ".join(differ))
    print("%-30s %16s %16s %9s" % ("metric", "A", "B", "B/A"))
    for name in sorted(set(a["metrics"]) | set(b["metrics"])):
        va, vb = a["metrics"].get(name), b["metrics"].get(name)
        ratio = "%9.3f" % (vb / va) if va and vb is not None else "%9s" % "-"
        print("%-30s %16s %16s %s" % (name, "-" if va is None else "%.6g" % va,
                                      "-" if vb is None else "%.6g" % vb, ratio))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("target", nargs="?", help="a workload, or 'all'")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--commit")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    target = args.workload or args.target
    if target not in WORKLOADS + ["all"]:
        p.error("choose a workload (%s) or 'all'" % ", ".join(WORKLOADS))
    args.commit = args.commit or commit()
    binary = build()
    if target != "all":
        return run_workload(binary, args, target)[0]
    status = 0
    summary = []
    for w in WORKLOADS:
        code, out = run_workload(binary, args, w, capture=True)
        sys.stdout.write(out)
        status = status or code
        last = out.strip().splitlines()[-1] if out.strip() else "{}"
        summary.append((w, code, json.loads(last) if last.startswith("{") else {}))
    print("\n%-16s %-8s %-30s %18s  %s" % ("workload", "correct", "metric", "value", "unit"))
    for w, code, res in summary:
        for name, m in res.get("metrics", {}).items():
            print("%-16s %-8s %-30s %18.6f  %s" % (w, res.get("correct"), name,
                                                   m["value"], m["unit"]))
        if not res.get("metrics"):
            print("%-16s %-8s (exit %d)" % (w, res.get("correct", False), code))
    return status


if __name__ == "__main__":
    sys.exit(main())
