#!/usr/bin/env python3
"""Self-test of the replay benchmark.

Run from the repository root (about a minute; builds on first use):

    python3 replaybench/tests/selftest.py

Checks, on a tiny seeded run of every workload:
  * every end-to-end metric (trace 0) and every per-layer metric
    (trace 1) prints, by the names and units in BENCHMARK.json, with
    end-to-end values above zero;
  * every timed pass starts with an empty digest cache (each misses
    the cache as often as the first);
  * the traced run's span file is accepted by `cryptodrop trace-report`;
  * a planted wrong expectation fails the correctness check;
and, through `replaybench --self-check`, that the percentile helper
reports the samples beyond each percentile and that the normalisation
math is right on synthetic timings.
"""
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
RUN = ROOT / "replaybench" / "run.py"
SEED = "7"


def run_workload(workload, trace, *extra):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", SEED,
           "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


class Checks:
    def __init__(self):
        self.failures = 0

    def expect(self, ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failures += 1


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    checks = Checks()

    # Builds the benchmark (first use) and runs the helper unit checks.
    rc, _, _ = run_workload("benign_replay", 0)
    checks.expect(rc == 0, "the benchmark builds and a tiny benign run passes")
    helper = subprocess.run([str(ROOT / ".bench_build" / "replaybench" / "replaybench"),
                             "--self-check"], capture_output=True, text=True)
    print(helper.stdout, end="")
    checks.expect(helper.returncode == 0,
                  "percentile helper and normalisation math (replaybench --self-check)")

    for workload in [w["name"] for w in spec["workloads"]]:
        rc, lines, result = run_workload(workload, 0)
        checks.expect(rc == 0 and result is not None and result["correct"],
                      f"{workload}: tiny run is correct")
        if result is None:
            continue
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        checks.expect(printed == end_to_end,
                      f"{workload}: prints exactly the end-to-end metrics with their units")
        zero = [name for name, m in result["metrics"].items() if m["value"] <= 0]
        checks.expect(not zero, f"{workload}: every end-to-end metric is above zero {zero}")
        checks.expect(result["attempted"] >= 1 and result["failed"] == 0,
                      f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
        misses = [int(m) for m in re.findall(r"digest_misses=(\d+)", "\n".join(lines))]
        checks.expect(len(misses) >= 2 and misses[0] > 0 and len(set(misses)) == 1,
                      f"{workload}: all {len(misses)} timed passes start with an empty digest "
                      f"cache (the same digest misses in each: {sorted(set(misses))})")
        checks.expect(any(l.startswith("raw:") for l in lines) and
                      any(l.startswith("host:") for l in lines),
                      f"{workload}: prints the raw forms and the host block")

        rc, lines, result = run_workload(workload, 1)
        checks.expect(rc == 0 and result is not None and result["correct"],
                      f"{workload}: tiny traced run is correct")
        if result is not None:
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            checks.expect(printed == per_layer,
                          f"{workload}: traced run prints exactly the per-layer metrics")
        checks.expect(any(l.startswith("trace-report: accepted") for l in lines),
                      f"{workload}: cryptodrop trace-report accepts the span file")

        rc, lines, result = run_workload(workload, 0, "--plant-wrong-expectation")
        checks.expect(rc == 1 and result is not None and not result["correct"] and
                      any(l.startswith("CHECK FAILED") for l in lines),
                      f"{workload}: a planted wrong expectation fails the run")

    print(f"{checks.failures} failure(s)")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
