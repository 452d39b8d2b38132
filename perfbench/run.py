#!/usr/bin/env python3
"""Run the repository benchmark on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds the benchmark program (perfbench/nexbench.ml) and
bin/nextrace from this checkout's sources, generates the workload's
inputs from the seed in a process of their own, measures the workload
for about S seconds and passes the program's output through: every
metric with its unit, sample count, median and quartiles, then one JSON
line {"correct", "attempted", "failed", "metrics"}.  It exits non-zero
when any job or check failed.  Workloads: sort-fit, sort-spill,
sort-deep, ingest (see perfbench/NOTES.md).

--self-test checks determinism on every workload: two runs on the same
seed must print the same fingerprint (input and output digests and the
exact counts), and another seed must give another input.

Everything the benchmark writes stays under .perfbench_out/ and _build/
in the checkout.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "nexbench.exe")
NEXTRACE = os.path.join(ROOT, "_build", "default", "bin", "nextrace.exe")
WORKLOADS = ["sort-fit", "sort-spill", "sort-deep", "ingest"]

BUILD_TIMEOUT_S = 840
GEN_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("%s not found: run from a full source checkout" % need)
    if shutil.which("dune") is None:
        die("dune not found on PATH")
    # no shared build cache: the build reads and writes only this checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/nexbench.exe", "bin/nextrace.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        die("build failed")


def generate(workload, seed, tag):
    d = os.path.join(OUT, "%s-s%d-%s" % (workload, seed, tag))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    subprocess.run([EXE, "gen", "--workload", workload, "--seed", str(seed), "--dir", d],
                   cwd=ROOT, stdout=sys.stderr, timeout=GEN_TIMEOUT_S, check=True)
    return d


def measure(workload, seed, seconds, trace, capture=False):
    d = generate(workload, seed, str(os.getpid()))
    cmd = [EXE, "run", "--workload", workload, "--seed", str(seed), "--dir", d,
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-file", os.path.join(OUT, "trace-%s.json" % workload),
                "--nextrace", NEXTRACE]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def fingerprint(stdout):
    for line in stdout.splitlines():
        if line.startswith("fingerprint: "):
            return dict(kv.split("=", 1) for kv in line[len("fingerprint: "):].split())
    return None


def input_digest(workload, seed):
    d = generate(workload, seed, "selftest")
    h = hashlib.md5()
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as f:
            h.update(f.read())
    shutil.rmtree(d, ignore_errors=True)
    return h.hexdigest()


def self_test():
    bad = 0
    for w in WORKLOADS:
        runs = [measure(w, 1, 1, 0, capture=True) for _ in range(2)]
        prints = [fingerprint(r.stdout) for r in runs]
        if any(r.returncode != 0 for r in runs) or None in prints:
            print("%-10s FAIL: a run failed" % w)
            bad += 1
        elif prints[0] != prints[1]:
            diff = sorted(k for k in prints[0] if prints[0].get(k) != prints[1].get(k))
            print("%-10s FAIL: same seed, different %s" % (w, ", ".join(diff)))
            bad += 1
        elif input_digest(w, 1) == input_digest(w, 2):
            print("%-10s FAIL: seeds 1 and 2 give the same input" % w)
            bad += 1
        else:
            print("%-10s ok: %s" % (w, " ".join("%s=%s" % kv for kv in sorted(prints[0].items()))))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        die("--workload or --self-test is required")
    build()
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        sys.exit(self_test())
    sys.exit(measure(args.workload, args.seed, args.seconds, args.trace).returncode)


if __name__ == "__main__":
    main()
