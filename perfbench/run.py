#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout. The first call configures and builds the
`perfbench` CMake project (the parmis library plus the benchmark binary)
under `.bench_build/` (or `$CARGO_TARGET_DIR` when set); later calls only
re-check the build. Build output goes to stderr. The benchmark's stdout is
passed through, so its last line is the result object. Every run is also
stored, with its host provenance, as one JSON file under
`<build dir>/results/` for `perfbench/compare.py`.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("coarsen_rgg", "amg_setup_powerlaw", "serve_mesh", "serve_batched_powerlaw")
RUN_TIMEOUT_S = 170
# The kernel workloads run one OpenMP team on the caller's thread. Active
# waiting keeps idle team threads spinning between the many short parallel
# regions of one MIS-2/SpGEMM op instead of sleeping, so their cores do not
# halt and wake at every region (costly and noisy on virtual machines). The
# serving workloads keep the default: their workers run serial contexts, and
# a spinning idle team left over from setup would compete with them.
KERNEL_WORKLOADS = ("coarsen_rgg", "amg_setup_powerlaw")


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(jobs=4):
    """Configure (once) and build; returns the binary path or None."""
    bdir = os.path.join(build_root(), "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_root(), "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               "-DPARMIS_CHECK_INVARIANTS=OFF", "-DPARMIS_SANITIZE="]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return None
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", str(jobs)]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
        return None
    exe = os.path.join(bdir, "perfbench")
    return exe if os.path.exists(exe) else None


def parse_output(text):
    """(provenance, result) from the benchmark's stdout."""
    provenance, result = None, None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for ln in lines:
        if ln.startswith('{"provenance"'):
            provenance = json.loads(ln)["provenance"]
    if lines:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            result = None
    return provenance, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    args = ap.parse_args()

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size]
    env = dict(os.environ)
    if args.workload in KERNEL_WORKLOADS:
        env["OMP_WAIT_POLICY"] = "active"
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        provenance, result = parse_output(proc.stdout)
    except ValueError as e:
        print("perfbench: unparsable output: %s" % e, file=sys.stderr)
        return 1
    if provenance is None or result is None:
        print("perfbench: output lacks provenance or result line", file=sys.stderr)
        return 1

    rdir = os.path.join(build_root(), "results")
    os.makedirs(rdir, exist_ok=True)
    name = "%s-trace%s-seed%d-%s.json" % (args.workload, args.trace, args.seed, args.size)
    with open(os.path.join(rdir, name), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": int(args.trace),
                   "seconds": args.seconds, "size": args.size, "provenance": provenance,
                   "result": result}, f, indent=1)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
