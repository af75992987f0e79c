"""Self-test of the benchmark's own code at toy scale (60k rows, a few operations).

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload in BENCHMARK.json untraced and traced, and fails
(exit code 1) when a run fails, an answer check fails, the result line does
not have the required shape, or a metric named in BENCHMARK.json is missing
or carries another unit.  It also checks that the benchmark refuses to run,
without printing a result, from a directory that holds only BENCHMARK.json
and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def check_run(workload: str, trace: int, wanted: dict) -> list[str]:
    done = run([str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--scale", "toy"], ROOT)
    where = f"{workload} trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append(f"{where}: answer check failed\n{done.stdout}")
    if result.get("attempted", 0) < 1 or result.get("failed") != 0:
        problems.append(f"{where}: attempted {result.get('attempted')}, "
                        f"failed {result.get('failed')}")
    got = result.get("metrics", {})
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"{where}: metric {name} missing")
        elif got[name]["unit"] != unit:
            problems.append(f"{where}: {name} in {got[name]['unit']}, expected {unit}")
    for name in set(got) - set(wanted):
        problems.append(f"{where}: metric {name} is not in BENCHMARK.json")
    return problems


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail, print no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run([f"{HERE.name}/run.py", "--workload", "serve", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return ["bare directory: the benchmark ran without the program's sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    started = time.perf_counter()
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, wanted[trace])
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"self-test {'failed' if problems else 'passed'} "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
