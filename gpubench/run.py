#!/usr/bin/env python3
"""Build and run the gpumc benchmark (see gpubench/README.md).

    python3 gpubench/run.py --workload litmus|locks|serve|enum \
        --seed N --seconds S --trace 0|1
    python3 gpubench/run.py --selfcheck

The harness is a CMake project of its own (gpubench/CMakeLists.txt)
that compiles the gpumc sources of the surrounding checkout. It is
configured and built on first use into $CARGO_TARGET_DIR/gpubench
(default .bench_build/gpubench, relative to the repository root);
later runs only re-check the build. Build output goes to stderr; the
last stdout line is the run's result object.

--selfcheck runs every workload at tiny sizes, untraced and traced,
and checks each result line against BENCHMARK.json.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("litmus", "locks", "serve", "enum")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("gpubench: " + message, file=sys.stderr)
    sys.exit(code)


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build(build_dir):
    """Configure (once) and build the harness; returns its binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gpumc sources next to gpubench/ (expected src/CMakeLists.txt)")
    if not shutil.which("cmake"):
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd, deadline)
        run_build_step(["cmake", "--build", build_dir, "-j",
                        str(os.cpu_count() or 1)], deadline)
    binary = os.path.join(build_dir, "gpubench")
    if not os.access(binary, os.X_OK):
        fail("build produced no gpubench binary")
    return binary


def child_env():
    """Keep compiler and harness temporaries inside the checkout."""
    tmp = os.path.join(target_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_build_step(cmd, deadline):
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, env=child_env(),
                                timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("build timed out: " + " ".join(cmd))
    if result.returncode != 0:
        fail("build failed: " + " ".join(cmd))


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the sources that determine the measured program."""
    digest = hashlib.sha256()
    paths = []
    for top in ("src", "cat", "litmus", "tools", "gpubench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, f) for f in filenames]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def stop_group(pgid):
    """Kill whatever is left in the run's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(binary, out_dir, args, extra=()):
    """Run one workload; returns (exit code, stdout text)."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--serve-bin", os.path.join(os.path.dirname(binary), "gpumc-serve"),
           "--out-dir", out_dir, "--commit", commit_id(),
           "--source-digest", source_digest()] + list(extra)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True,
                            env=child_env())
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S), 3)
    stop_group(proc.pid)
    return proc.returncode, out


def check_result(line, trace, spec):
    """Problems of one result line against BENCHMARK.json's contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("wrong result keys %s" % sorted(result))
        return problems
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted < 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append("metrics differ from BENCHMARK.json: %s"
                        % sorted(set(got.items()) ^ set(want.items())))
    for name, value in result["metrics"].items():
        if not trace and value["value"] == 0:
            problems.append("end-to-end metric %s is 0" % name)
    return problems


def selfcheck(binary, out_dir, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args.workload, args.seed, args.seconds, args.trace = \
                workload, 7, 1, trace
            start = time.monotonic()
            code, out = run_workload(binary, out_dir, args, ["--tiny"])
            lines = out.strip().splitlines()
            problems = ["exit code %d" % code] if code else []
            problems += check_result(lines[-1] if lines else "", trace, spec)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("selfcheck %-6s trace=%d %6.1fs %s"
                  % (workload, trace, time.monotonic() - start, status))
            failures += bool(problems)
    print("selfcheck: %s" % ("ok" if not failures else
                              "%d failures" % failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")

    base = target_dir()
    binary = build(os.path.join(base, "gpubench"))
    out_dir = os.path.join(base, "out")
    if args.selfcheck:
        return selfcheck(binary, out_dir, args)
    code, out = run_workload(binary, out_dir, args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
