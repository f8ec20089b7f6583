"""Byte digests of the benchmark's solver cases.

    python tools/bytes.py digest OUT

``digest`` builds the ``banach_projected`` and ``hilbert_dense`` cases of
the checkout that holds this script (its ``perfbench/problems.py``) at
the one seed ``SEED`` = 7, imports ``projsd`` from ``src`` in the working
directory, solves each case once and writes one line per case to OUT:
the workload, the case's label, K and the sha256 of the bytes of
``x_final``.  Run from two checkouts with the same script, the two files
are equal exactly when every case keeps its K and the bits of its result,
so ``cmp`` of the two compares a change's solver with its base commit's
on the benchmark's own inputs.
"""

import hashlib
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("banach_projected", "hilbert_dense")
SEED = 7


def digest(out_path):
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "projsd", "__init__.py")):
        sys.exit(f"bytes: no src/projsd in {os.getcwd()}")
    sys.path[:0] = [src, os.path.join(os.path.dirname(HERE), "perfbench")]
    import projsd
    import problems
    if not os.path.abspath(projsd.__file__).startswith(src + os.sep):
        sys.exit(f"bytes: projsd imported from {projsd.__file__}, not from "
                 f"{src}")
    with open(out_path, "w") as out, tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for case in problems.WORKLOADS[workload](SEED, work):
                report = case.solve()
                sha = hashlib.sha256(report.x_final.tobytes()).hexdigest()
                print(workload, case.label, report.stopped_at_k, sha,
                      file=out)


def main(argv):
    if argv[:1] == ["digest"] and len(argv) == 2:
        digest(argv[1])
    else:
        sys.exit(__doc__.split("\n\n")[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
