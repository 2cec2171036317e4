#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload paper_stencil --seed 1 \
        --seconds 13 --trace 0

The first call configures and builds perfbench/ (which compiles the
polymage library from src/) into .bench_build/; later calls only
rebuild what changed.  Build output goes to stderr.  The benchmark's
stdout is passed through, so its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 1 the spans of the run are written as Chrome trace-event
JSON to .bench_build/perfbench/traces/<workload>-seed<seed>.json (open
it in chrome://tracing or https://ui.perfetto.dev).

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_stencil", "paper_pyramid", "serve_mixed")
# A run must end within 180 s (the first one, which builds, within
# 900 s): the build and the run each get a hard limit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_group(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole
    group (JIT compiler children included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: %s timed out after %d s" % (cmd[0], timeout),
              file=sys.stderr)
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no polymage sources at %s/src" % ROOT,
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j4"])
    for cmd in steps:
        code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def child_env(bdir):
    """The run's environment: no POLYMAGE_*/OMP_* overrides (thread
    counts and JIT options are set through the API), and compiler
    temporaries kept inside the checkout."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("POLYMAGE_", "OMP_", "GOMP_"))}
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["XDG_CACHE_HOME"] = os.path.join(bdir, "cache")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    cmd = [os.path.join(bdir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          cwd=ROOT, env=child_env(bdir))
    if out:
        sys.stdout.write(out.decode("utf-8", "replace"))
        sys.stdout.flush()
    if code is None:
        return 1
    if code != 0:
        print("perfbench: exited with %d" % code, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
