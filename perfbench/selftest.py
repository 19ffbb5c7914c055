"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that
  * two traced runs at the default seed give identical per-layer counts and
    identical report digests;
  * a run at a held-out seed, not used while the benchmark was tuned, reaches
    every known answer (failed_ratio 0);
and that the benchmark refuses to run, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
DEFAULT_SEED = 1
HELD_OUT_SEED = 90917
TIMED_UNITS = ("s", "ms")


def run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json"),
              encoding="utf-8") as fh:
        summary = json.load(fh)
    return result, summary


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in TIMED_UNITS}


def check_workload(workload):
    problems = []
    first, first_summary = run(workload, DEFAULT_SEED, 1)
    second, second_summary = run(workload, DEFAULT_SEED, 1)
    for label, result in (("first", first), ("second", second)):
        if not result["correct"]:
            problems.append(f"{label} traced run missed known answers")
    a, b = counts(first), counts(second)
    differ = sorted(k for k in a if a[k] != b.get(k))
    if differ:
        problems.append(f"per-layer counts differ between traced runs: {differ}")
    if (first_summary["extra"]["report_sha256"]
            != second_summary["extra"]["report_sha256"]):
        problems.append("report digests differ between traced runs")
    held, held_summary = run(workload, HELD_OUT_SEED, 0)
    if held["failed"] or held_summary["extra"]["failed_ratio"] != 0:
        problems.append(f"held-out seed {HELD_OUT_SEED}: {held['failed']} of "
                        f"{held['attempted']} ops failed")
    return problems


def check_bare_directory():
    """Without the program's sources the benchmark must fail, printing no
    result."""
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
             "words", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, output {proc.stdout!r}"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    os.makedirs(OUT, exist_ok=True)
    problems = check_bare_directory()
    for name in names:
        found = check_workload(name)
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += [f"{name}: {p}" for p in found]
    for p in problems:
        print(p)
    print("selftest passed" if not problems else "selftest FAILED")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
