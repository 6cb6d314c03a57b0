"""Fast self-check of the benchmark, at tiny input sizes.

    python3 perfbench/selfcheck.py

Runs ``run.py --tiny`` on every workload the runner knows, untraced and
traced, and checks that each run exits 0 and ends with the result object
carrying every metric ``BENCHMARK.json`` names, with its unit, and that the
output checks ran.  It also checks the golden-row comparison against the
recorded goldens, and that the runner refuses, without printing a result, to
run in a directory that holds only ``BENCHMARK.json`` and the benchmark.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {info['errors']}")
    if info["calls_checked"] < 1:
        problems.append(f"{where}: no output checks ran")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in wanted}
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    if emitted != expected:
        problems.append(f"{where}: metrics {emitted} differ from {expected}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def check_golden_comparison(workloads) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        golden = (workloads.GOLDEN_DIR / f"{name}.csv").read_text()
        lines = golden.splitlines()
        last = lines[-1].split(",")
        last[-1] = last[-1] + "0" if last[-1] != "0" else "1"
        altered = "\n".join(lines[:-1] + [",".join(last)]) + "\n"
        if workloads.mismatched_rows(golden, golden) != 0:
            problems.append(f"{name}: golden does not match itself")
        if workloads.mismatched_rows(altered, golden) != 1:
            problems.append(f"{name}: an altered row is not counted")
    return problems


def check_refuses_without_source() -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix="_work-", dir=run.HERE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("_work-*", "__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "limit-a15",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"runner without source: exit {done.returncode}, "
                f"stdout {done.stdout[-500:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_package()
    import workloads

    problems = check_golden_comparison(workloads) + check_refuses_without_source()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
