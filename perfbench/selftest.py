"""Self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs every workload (or the ones named) twice with ``--trace 0`` and
twice with ``--trace 1`` at a one-second run length, from the same seed.
It checks that each run passes its correctness gate, that it emits every
metric named in ``BENCHMARK.json`` with its unit, and that the counts
repeat exactly across the two runs.  Exits non-zero on the first
mismatch.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 1

# Metrics that must repeat exactly for a seed: counts, sizes, and ratios
# of counts or of deterministic results.
EXACT_UNITS = {"count", "bytes"}
EXACT_NAMES = {"rel_error.max", "multilevel.iter_ratio_vs_single",
               "sets.moved_ratio", "sets.moved_ratio.box",
               "sets.moved_ratio.ball", "sets.moved_ratio.subspace"}


def expect(ok, message):
    if not ok:
        raise AssertionError(message)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    expect(proc.returncode == 0,
           f"{workload} trace {trace}: exit code {proc.returncode}\n"
           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, expected):
    first, second = run(workload, trace), run(workload, trace)
    for result in (first, second):
        expect(result["correct"] is True and result["failed"] == 0
               and result["attempted"] >= 1, f"{workload}: {result}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        diff = sorted(set(got.items()) ^ set(expected.items()))
        expect(not diff, f"{workload} trace {trace}: metrics and units "
                         f"differ from BENCHMARK.json: {diff}")
        for name, m in result["metrics"].items():
            expect(isinstance(m["value"], (int, float))
                   and math.isfinite(m["value"]), f"{workload}: {name} {m}")
    exact = [name for name, unit in expected.items()
             if unit in EXACT_UNITS or name in EXACT_NAMES]
    for name in exact:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        expect(a == b, f"{workload} trace {trace}: {name} {a} != {b}")
    print(f"ok {workload} trace {trace}: {len(expected)} metrics, "
          f"{len(exact)} exact counts repeat")


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = argv or [w["name"] for w in bench["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for workload in workloads:
            check(workload, trace, expected)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
