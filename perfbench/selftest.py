"""The benchmark's own test.

    python3 perfbench/selftest.py

For every workload it runs `run.py --trace 1` twice, each in a fresh
process with the default seed and a short run, and fails unless both runs
are correct and report the same value for every count in
`run.EXACT_COUNTS`. It also runs `run.py` in a directory that holds only
BENCHMARK.json and perfbench, where it must exit nonzero without printing
a result. Takes about two minutes.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys

import run

SECONDS = "2"


def traced(workload: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", SECONDS, "--trace", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    failures = []
    for workload in run.WORKLOADS:
        results = []
        for _ in range(2):
            proc = traced(workload)
            if proc.returncode != 0:
                failures.append(f"{workload}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                break
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        if len(results) < 2:
            continue
        for res in results:
            if not res["correct"]:
                failures.append(f"{workload}: run not correct")
        for name in run.EXACT_COUNTS:
            a, b = (res["metrics"][name]["value"] for res in results)
            if a != b:
                failures.append(f"{workload}: {name} is {a} then {b}")
        print(f"{workload}: " + ", ".join(
            f"{name} = {results[0]['metrics'][name]['value']}" for name in run.EXACT_COUNTS))

    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = traced(next(iter(run.WORKLOADS)), cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            failures.append("run.py did not fail without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(run.WORK)

    for failure in failures:
        print("FAIL " + failure)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
