#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. Configures and builds perfbench/ (which
compiles ../src) into .bench_build/ as a Release build, stamps the run
with its provenance (git sha or source digest, nproc, compiler, build
type), and runs the perfbench binary. The binary's last output line is
the result JSON. A traced run (--trace 1) also writes its spans and
counts to .bench_build/traces/. The exit code is the binary's: 0 when
every output check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success.

    The compiler's temporary files go to .bench_build/tmp, so the build
    writes nothing outside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, env=env,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return False


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("the tbwf sources (src/) are missing; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_quiet(["cmake", "--build", str(BUILD), "-j", jobs],
                     BUILD_TIMEOUT_S) and BINARY.is_file()


def cmake_cache(key):
    try:
        for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def source_digest():
    """sha256 over the files the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance():
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            version = subprocess.run([compiler, "--version"],
                                     capture_output=True, text=True,
                                     timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "compiler": version or compiler or "unknown",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE") or "unknown",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    if not build():
        log("build failed")
        return 2

    if args.self_test:
        cmd = [str(BINARY), "--self-test"]
    else:
        cmd = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--provenance", json.dumps(provenance(), sort_keys=True)]
        if args.trace == "1":
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        # run() kills the child on timeout and waits for it to end.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3


if __name__ == "__main__":
    sys.exit(main())
