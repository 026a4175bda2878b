#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke_test.py

Run from the root of a purec checkout. Checks that BENCHMARK.json lists
exactly the metrics run.py defines, with the same units and directions;
that every run prints exactly those metrics, with those units, and no
failed operation; that a second seed gives the same metric names and no
failure on `compile`; and that the traced run's decision counts and memo
counters repeat exactly on the same seed. Exits non-zero on the first
mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

EXACT = ["memo.hits", "memo.misses", "memo.evictions", "memo.thunks",
         "polyhedral.dependence.count", "emit.bytes", "purity.rejected"] + [
    name for name, _, _ in run.PER_LAYER if name.startswith("transform.")
    and not name.endswith(".ms")]


def check(ok, what):
    if not ok:
        sys.exit(f"smoke: FAILED {what}")


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"], capture_output=True, text=True, cwd=ROOT, timeout=900)
    check(proc.returncode == 0,
          f"{workload} seed {seed} trace {trace} exited "
          f"{proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} seed {seed} trace {trace}: {proc.stdout[-3000:]}")
    wanted = run.PER_LAYER if trace else run.END_TO_END
    metrics = result["metrics"]
    check(list(metrics) == [name for name, _, _ in wanted],
          f"{workload} trace {trace}: metric names {list(metrics)}")
    for name, unit, _ in wanted:
        check(metrics[name]["unit"] == unit, f"{workload} {name}: unit")
        check(isinstance(metrics[name]["value"], (int, float)),
              f"{workload} {name}: value")
    return metrics


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(listed == table, f"BENCHMARK.json {key} differs from run.py")
    workloads = [w["name"] for w in spec["workloads"]]
    check(workloads == list(run.WORKLOADS), f"workloads {workloads}")

    for workload in workloads:
        bench(workload, 1, 0)
        first = bench(workload, 1, 1)
        again = bench(workload, 1, 1)
        for name in EXACT:
            check(first[name]["value"] == again[name]["value"],
                  f"{workload} {name} repeats on the same seed")
        if workload == "memo":
            check(first["memo.hits"]["value"] > 0
                  and first["memo.misses"]["value"] > 0, "memo counters")
        print(f"smoke: {workload} ok", flush=True)
    bench("compile", 2, 0)
    print("smoke: compile seed 2 ok\nsmoke: ok")


if __name__ == "__main__":
    main()
