#!/usr/bin/env python3
"""Build and run the certkit benchmark (see BENCHMARK.json).

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload drive|assess|campaign \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (which builds the certkit
libraries from src/) into .bench_build/; later calls rebuild incrementally.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the exit status is nonzero when any output differs from
its reference digest.

Other commands, forwarded to the same binary:

    python3 perfbench/run.py compare BASE_DIR CHANGE_DIR
        Verdicts (better / worse / unresolved / unchanged) per workload and
        end-to-end metric, against the bounds in BENCHMARK.json. Each
        directory holds the saved stdout of untraced runs, one file per run,
        e.g. for s in 1 2 3 4 5 6 7 8 9 10; do
               python3 perfbench/run.py --workload drive --seed $s \
                   --seconds 20 --trace 0 > runs/base/drive_$s.log; done
    python3 perfbench/run.py selftest
        The benchmark's own tests: quantile rule, compare verdicts and the
        reference-digest gate.
    python3 perfbench/run.py reference --workload W --seed N
        Prints a perfbench/references.txt line for that seed.
"""

import fcntl
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("certkit sources not found next to perfbench/ (no src/)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build per checkout at a time
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "perfbench"])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result line.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))


def source_rev():
    """The git revision when the checkout has one, plus a content hash of
    the sources the benchmark builds, read from files inside the checkout."""
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    rev = "tree:" + digest.hexdigest()[:12]
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            ref = ""
            if os.path.isfile(ref_path):
                with open(ref_path) as f:
                    ref = f.read().strip()
        if ref:
            rev = "git:" + ref[:12] + " " + rev
    return rev


def main(argv):
    if not argv or argv[0].startswith("--"):
        args = ["run"] + argv + ["--references",
                                 os.path.join(HERE, "references.txt"),
                                 "--source-rev", source_rev()]
    elif argv[0] == "compare":
        args = ["compare", "--bounds", os.path.join(ROOT, "BENCHMARK.json")]
        args += argv[1:]
    else:
        args = argv
    build()
    child = subprocess.Popen([BINARY] + args)

    def stop(signum, frame):  # never leave the benchmark running behind us
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail("benchmark timed out after %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
