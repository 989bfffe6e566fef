"""Self-test of the benchmark at small size, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs run.py untraced and traced with `--size small` and
checks that each run is correct, that the metric names and units printed are
exactly those of BENCHMARK.json, and that in the traced run the per-layer
self times account for the traced process's wall time. Last, it checks that
the benchmark fails, printing no result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits 0 when all checks pass.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import RUN_SELF_TIMES, WORK  # noqa: E402

# only the tracer's own set-up and report are outside every self time
ACCOUNTED_MIN, ACCOUNTED_MAX = 0.95, 1.01


def bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, seed in ((0, 7), (1, 8)):
            label = f"{workload} trace {trace}"
            proc = bench(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                          "--trace", str(trace), "--size", "small"])
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct: {result}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
                continue
            if trace:
                m = result["metrics"]
                share = sum(m[k]["value"] for k in RUN_SELF_TIMES) / m["traced_wall_s"]["value"]
                print(f"{label}: self times cover {share:.1%} of the traced wall time")
                if not ACCOUNTED_MIN <= share <= ACCOUNTED_MAX:
                    problems.append(f"{label}: self times cover {share:.1%} of traced wall")
            print(f"{label}: ok, {result['attempted']} attempted")

    bare = os.path.join(WORK, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(["--workload", "lasso_sap", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"bare directory: refused with exit {proc.returncode}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
