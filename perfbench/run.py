#!/usr/bin/env python3
"""Builds the rain_perf benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload dblp_train --seed 1 --seconds 30 --trace 0

Configures perfbench/CMakeLists.txt (which builds the library through the
repository's own top-level CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset, builds it, and runs
`rain_perf`. Build output goes to stderr; the benchmark's own output goes to
stdout, whose last line is the JSON result. The exit code is rain_perf's (1
when an output check failed); a failed build exits 1 without a result.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

_children = []


def _kill_children(*_):
    for proc in _children:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return None, 1
    finally:
        _children.remove(proc)
    return out, proc.returncode


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out, code = run(["git", "rev-parse", "HEAD"], 30, subprocess.PIPE)
        if code == 0 and out.strip():
            return out.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dblp_train", "adult_ilp", "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, _kill_children)

    build = build_dir()
    _, code = run(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("run.py: configure failed", file=sys.stderr)
        return 1
    _, code = run(["cmake", "--build", build, "--target", "rain_perf", "-j", "4"],
                  BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build, "rain_perf"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--source", source_id(),
           "--trace-dir", os.path.join(build, "traces")]
    out, code = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if out is None:
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
