"""Fast self-check of the benchmark (its own test), about two minutes.

    python3 perfbench/selfcheck.py

Runs every workload end to end and traced at tiny sizes and checks the
result line against BENCHMARK.json: exactly the result's four keys, every
metric name once with its unit, finite values, end-to-end values above
zero, no failed operation and no layer marked missing. It also checks
that layers.json describes exactly the per-layer metrics, and that the
runner refuses, without a result, a directory holding only the
benchmark. Exits non-zero if any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("predict", "predict_dtw", "stream", "sweep")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {lines[-12:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    spec = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in spec]:
        problems.append(f"{where}: metric names {sorted(metrics)}")
    for m in spec:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            problems.append(f"{where}: {m['name']} is {got}")
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {m['name']} = {value}")
    missing = [line for line in lines if "MISSING" in line]
    if missing:
        problems.append(f"{where}: layers missing: {missing}")
    return problems


def check_layer_catalog(bench: dict) -> list[str]:
    with (BENCH_DIR / "layers.json").open() as handle:
        layers = json.load(handle)["layers"]
    names = [entry["name"] for entry in layers]
    problems = []
    if names != [m["name"] for m in bench["per_layer"]]:
        problems.append("layers.json and BENCHMARK.json per_layer differ")
    e2e = {m["name"] for m in bench["end_to_end"]} | {"error_rate"}
    for entry in layers:
        if not set(entry["workloads"]) <= set(WORKLOADS):
            problems.append(f"{entry['name']}: unknown workloads")
        if not set(entry["moves"]) <= e2e:
            problems.append(f"{entry['name']}: moves unknown metrics")
    return problems


def check_refuses_without_program() -> list[str]:
    bare = BENCH_DIR / ".work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "--workload", "predict", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["runner did not refuse a directory without the program"]
    return []


def main() -> int:
    with (ROOT / "BENCHMARK.json").open() as handle:
        bench = json.load(handle)
    problems = check_layer_catalog(bench) + check_refuses_without_program()
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = check_result(bench, workload, trace)
            print(f"{workload:<12} trace {trace}: {'FAIL' if found else 'ok'}")
            problems += found
    for problem in problems:
        print(problem)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
