#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size: `python3 bench/selftest.py`.

Kept out of the tier-1 pytest run (pytest collects tests/ only).  It
checks that

1. BENCHMARK.json and bench/metrics.json declare the same metrics;
2. every declared metric is emitted with its unit on every workload:
   the end-to-end metrics with --trace 0, the per-layer ones with --trace 1;
3. a deliberately wrong result, every operator matrix scaled by 1.01, is
   counted as a failed operation and makes the run incorrect;
4. in a directory holding only BENCHMARK.json and bench/, the benchmark
   exits with a non-zero code and prints no result.

Exits 0 when every check passes and 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 300


def bench(*args, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", "--size", "tiny", *args]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    with open(os.path.join(HERE, "metrics.json")) as fh:
        roles = json.load(fh)
    problems = []

    for group in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared[group]}
        described = {k: (v["unit"], v["better"]) for k, v in roles[group].items()}
        if listed != described:
            problems.append(f"{group}: BENCHMARK.json and metrics.json differ")
    if [w["name"] for w in declared["workloads"]] != list(roles["workloads"]):
        problems.append("workloads: BENCHMARK.json and metrics.json differ")

    for workload in roles["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done, result = bench("--workload", workload, "--trace", str(trace))
            if done.returncode != 0 or result is None:
                problems.append(f"{workload} trace {trace}: exit {done.returncode}, no result\n{done.stderr[-2000:]}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in declared[group]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong_unit = sorted(k for k in set(want) & set(got) if want[k] != got[k])
                problems.append(
                    f"{workload} trace {trace}: missing {missing}, extra {extra}, wrong unit {wrong_unit}"
                )
            if not all(isinstance(v.get("value"), (int, float)) for v in result["metrics"].values()):
                problems.append(f"{workload} trace {trace}: a metric value is not a number")
            print(f"{workload} trace {trace}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} failed, correct {result['correct']}")

    for workload in ("assembly", "branch"):
        _, clean = bench("--workload", workload)
        _, faulty = bench("--workload", workload, "--fault", "scale-matrix")
        if clean is None or faulty is None:
            problems.append(f"{workload}: no result with or without the injected fault")
            continue
        if not clean["correct"] or faulty["correct"] or faulty["failed"] < 1:
            problems.append(
                f"{workload}: scaled matrix not caught (clean run correct {clean['correct']}, "
                f"faulty run correct {faulty['correct']} with {faulty['failed']} failed)"
            )
        print(f"{workload} with scaled matrix: {faulty['failed']}/{faulty['attempted']} failed "
              f"(clean run {clean['failed']}), correct {faulty['correct']}")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        done, result = bench("--workload", "assembly", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or result is not None:
        problems.append(f"bare directory: exit {done.returncode}, result {result}")
    print(f"bare directory: exit {done.returncode}, no result printed: {result is None}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
