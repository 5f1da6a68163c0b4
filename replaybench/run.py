#!/usr/bin/env python3
"""Replay benchmark for the CryptoDrop reproduction (see METHOD.md).

Run from the repository root:

    python3 replaybench/run.py --workload ransomware_replay --seed 1 \
        --seconds 10 --trace 0

Builds the program and the benchmark from source into .bench_build/
(first run only), runs one workload, checks its outputs and prints the
result JSON as the last line of standard output. Exit status: 0 when
every correctness check passed, 1 when one failed, 2 or 3 when the run
could not happen (no result line is printed then).
"""
import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "replaybench"
WORK_DIR = BUILD_DIR / "work"
TMP_DIR = BUILD_DIR / "tmp"
WORKLOADS = ("ransomware_replay", "benign_replay", "daemon_socket")
RUN_TIMEOUT_S = 175
BUILD_JOBS = "2"


def log(message):
    print(f"replaybench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark and the CLI; returns
    the two executables."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"program sources not found under {ROOT / 'src'}; nothing to benchmark")
        sys.exit(3)
    # Keep the compiler's temporary files inside the checkout too.
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(TMP_DIR)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("configure failed")
            sys.exit(3)
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "replaybench",
                   "cryptodrop_cli", "-j", BUILD_JOBS]
    if subprocess.run(compile_cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
        log("build failed")
        sys.exit(3)
    return BUILD_DIR / "replaybench", BUILD_DIR / "cryptodrop"


def check_trace_report(cli, span_file):
    """`cryptodrop trace-report --in FILE` must accept the span file and
    fold it into its stage table. Returns an error message or None."""
    try:
        proc = subprocess.run([str(cli), "trace-report", "--in", str(span_file)],
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "trace-report timed out"
    if proc.returncode != 0:
        return f"trace-report exited {proc.returncode}: {proc.stderr.strip()[:300]}"
    if "apply" not in proc.stdout and "cycle" not in proc.stdout:
        return "trace-report printed no benchmark stages"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (replaybench/tests/selftest.py).
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--plant-wrong-expectation", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    bench, cli = build()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = os.path.relpath(WORK_DIR, ROOT)  # Keeps the socket path short.
    cmd = [str(bench), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_wrong_expectation:
        cmd.append("--plant-wrong-expectation")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        log(f"{args.workload} failed (exit {proc.returncode}) without a result")
        return 2
    for line in lines[:-1]:
        print(line)
    if args.trace == 1:
        span_file = ROOT / work / f"spans-{args.workload}.json"
        error = check_trace_report(cli, span_file)
        if error is not None:
            print(f"CHECK FAILED: {error}")
            result["correct"] = False
        else:
            print(f"trace-report: accepted {os.path.relpath(span_file, ROOT)}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
