"""Smoke check of the benchmark itself: python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json on a short run in both modes and
checks the result line: exactly the keys correct/attempted/failed/metrics,
a nonzero attempted count, every end-to-end metric (--trace 0) or every
per-layer metric (--trace 1) with its unit, and failed_ratio equal to
failed / attempted. Then runs the benchmark in a directory that holds only
BENCHMARK.json and the benchmark's files, where it must exit nonzero
without a result line. Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = HERE / "out" / "bare"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: {proc.stdout[-2000:]}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(named), f"missing {set(named) - set(got)}, extra {set(got) - set(named)}"
    for name, unit in named.items():
        assert got[name]["unit"] == unit, (name, got[name], unit)
        assert isinstance(got[name]["value"], (int, float)), (name, got[name])
    if trace:
        ratio = got["failed_ratio"]["value"]
        assert ratio == result["failed"] / result["attempted"], (ratio, result)
    else:
        assert all(got[m["name"]]["value"] > 0 for m in spec["end_to_end"]), got
    print(f"ok  {workload:14} --trace {trace}: {result['attempted']} queries, "
          f"{result['failed']} failed, {len(got)} metrics")


def check_bare(spec: dict) -> None:
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, BARE / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run(BARE, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(BARE)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without the program: exit {proc.returncode}, no result line")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(spec, w["name"], trace)
    check_bare(spec)


if __name__ == "__main__":
    main()
