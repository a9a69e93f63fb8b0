"""Quick check of the benchmark harness itself (about two minutes).

    python3 bench/smoke.py

For every workload, also one BENCHMARK.json does not list, it makes one
short untraced run and two short traced runs with the same seed, and checks
each result line against BENCHMARK.json: the keys, the metric names and
units, a correct answer with no failed request, and identical deterministic
per-layer counts in the two traced runs. Then it checks that the benchmark
exits non-zero without a result in a directory that holds only
BENCHMARK.json and bench/.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# Per-layer units whose values are counts or ratios of counts, so they must repeat exactly.
DETERMINISTIC_UNITS = ("count", "ratio", "calls/query", "tests/call")


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=175)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(res, specs, workload, trace):
    where = f"{workload} --trace {trace}"
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, where
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, f"{where}: {res}"
    assert list(res["metrics"]) == [s["name"] for s in specs], f"{where}: metric names differ from BENCHMARK.json"
    for s in specs:
        m = res["metrics"][s["name"]]
        assert set(m) == {"value", "unit"} and m["unit"] == s["unit"], f"{where}: {s['name']} {m}"
        assert isinstance(m["value"], (int, float)), f"{where}: {s['name']} is not a number"
        if trace == 0:
            assert m["value"] > 0, f"{where}: end-to-end metric {s['name']} is not positive"


def check_bare_directory(spec):
    """Only BENCHMARK.json and the benchmark's own files: no program to run."""
    bare = os.path.join(ROOT, ".bench_out", f"smoke-bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark ran without the program"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, BENCH)
    from run import WORKLOADS

    for name in WORKLOADS:
        check_result(result(run(ROOT, name, 0)), spec["end_to_end"], name, 0)
        traced = [result(run(ROOT, name, 1)) for _ in range(2)]
        for res in traced:
            check_result(res, spec["per_layer"], name, 1)
        for s in spec["per_layer"]:
            if s["unit"] in DETERMINISTIC_UNITS:
                a, b = (res["metrics"][s["name"]]["value"] for res in traced)
                assert a == b, f"{name}: {s['name']} differs between two traced runs ({a} != {b})"
        print(f"ok {name}")
    check_bare_directory(spec)
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
