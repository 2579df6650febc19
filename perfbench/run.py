#!/usr/bin/env python3
"""Run one workload of the iotx repository benchmark.

    python3 perfbench/run.py --workload campaign|rerun|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the iotx sources and the C++ harness under perfbench/harness into
the build directory ($CARGO_TARGET_DIR, default .bench_build, relative to
the repository root), prepares the warm artifact store that `rerun`
reads, then runs the harness. Build output goes to stderr; the last line
of stdout is the result JSON. Exits non-zero, without a result line, when
the build fails or an output check fails. See perfbench/README.md.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign", "rerun", "serve")
# Each run must end within 180 s; leave the harness room to be stopped.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def jobs():
    return len(os.sched_getaffinity(0))


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as out:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        with open(log_path, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        log(f"{' '.join(cmd)} failed:\n{tail}")
        raise SystemExit(2)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no iotx sources under {ROOT}/src; nothing to benchmark")
        raise SystemExit(2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log_path, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "-j", str(jobs()), "--target"]
               + targets, log_path, BUILD_TIMEOUT_S)


def stamp_of(path):
    st = os.stat(path)
    return f"{st.st_size}:{st.st_mtime_ns}"


def harness(build_dir, workload, seed, seconds, trace, timeout):
    """Runs the harness in its own process group and relays its stdout."""
    state = os.path.join(build_dir, "state")
    cmd = [os.path.join(build_dir, "perfbench"), workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--state", state,
           "--baseline", os.path.join(HERE, "baseline.json"),
           "--iotx", os.path.join(build_dir, "iotx", "tools", "iotx"),
           "--jobs", str(jobs())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"{workload} did not finish within {timeout} s")
        raise SystemExit(1)
    sys.stdout.write(out.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


def ensure_warm_store(build_dir):
    """Fills the store `rerun` reads, once per build of the harness."""
    state = os.path.join(build_dir, "state")
    stamp_path = os.path.join(state, "warm-store.stamp")
    want = stamp_of(os.path.join(build_dir, "perfbench"))
    if os.path.isfile(stamp_path):
        with open(stamp_path) as f:
            if f.read() == want:
                return
    log("filling the warm artifact store for rerun (one cold campaign)")
    saved = sys.stdout
    sys.stdout = sys.stderr  # the fill's report is not this run's result
    try:
        code = harness(build_dir, "fill", 0, 0, 0, RUN_TIMEOUT_S)
    finally:
        sys.stdout = saved
    if code != 0:
        raise SystemExit(code)
    with open(stamp_path, "w") as f:
        f.write(want)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

    if args.selftest:
        build(build_dir, ["perfbench_selftest"])
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=build_dir, check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")

    build(build_dir, ["perfbench", "iotx"])
    if args.workload == "rerun":
        ensure_warm_store(build_dir)
    return harness(build_dir, args.workload, args.seed, args.seconds,
                   args.trace, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
