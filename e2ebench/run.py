#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

Run from the repository root. The first run configures and builds the
library, `dgcli` and the `dgbench` driver into .bench_build/ (Release, the
repository's own flags); later runs only check the build is current. Build
output goes to stderr, so the last line of stdout is the driver's result
object.

The driver runs in its own process group. Whatever way this script ends
(normal exit, failed check, exception or SIGTERM/SIGINT) it kills that group,
reaps the driver and confirms that no process of the group is left.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("train-gcut", "train-dp-gcut", "generate-wwt", "serve-gcut")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dgbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def group_alive(pgid):
    """True while any process still belongs to process group `pgid`."""
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % pid) as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def stop_group(proc):
    """Stops the driver's process group (SIGTERM, then SIGKILL after 5 s),
    reaps the driver, and waits until no member of the group is left.
    Returns False if one survives."""
    for sig, grace in ((signal.SIGTERM, 5), (signal.SIGKILL, None)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            break
        try:
            proc.wait(timeout=grace)
            if not group_alive(proc.pid):
                break
        except subprocess.TimeoutExpired:
            pass
    proc.wait()
    deadline = time.time() + 10
    while group_alive(proc.pid):
        if time.time() > deadline:
            return False
        time.sleep(0.02)
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    build()
    exe = os.path.join(BUILD, "dgbench")
    if args.selftest:
        sys.exit(subprocess.run([exe, "--selftest"]).returncode)

    work = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cli", os.path.join(BUILD, "repo", "tools", "dgcli"),
           "--work-dir", work]

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    out = b""
    code = 1
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("run.py: workload exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        clean = stop_group(proc)
        shutil.rmtree(work, ignore_errors=True)
    if not clean:
        sys.exit("run.py: a process of the workload outlived it")
    text = out.decode()
    sys.stdout.write(text)
    if code != 0 or not text.strip():
        sys.exit("run.py: workload failed (exit %d)" % code)


if __name__ == "__main__":
    main()
