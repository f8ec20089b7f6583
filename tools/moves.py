"""Declared moves: compare a change's outputs with its base commit's
where the change declares that they move.

    python tools/moves.py declared BASE
    python tools/moves.py example HEAD BASE
    python tools/moves.py ball-points HEAD BASE

CI runs every example, and a seeded set of projections, with a change's
code and with its base commit's, and compares the outputs byte for byte.
A change that moves bits on purpose declares each moved output in
``examples/MOVES``, one line ``<name> <number> <reason>``: the name is an
example's file stem or ``ball-points``, the number that of the change
that declares the move, and the reason free text.  Lines starting with
``#`` and blank lines declare nothing.

``declared BASE`` reads the manifest of the checkout in the working
directory and that of the base checkout at BASE (none counts as empty).
Only the lines a change adds bind: the base's lines must stay the
manifest's first lines, unchanged and in order, so an old line cannot be
edited to declare its name again.  It prints the names of the added
lines, one per line, and exits 1 on an edited, removed or malformed
line.  Everything it does not print keeps the byte comparison.

``example HEAD BASE`` compares one declared example's outputs, the files
``HEAD.csv``, ``.yaml``, ``.out`` and ``.err`` with BASE's: stdout and
stderr byte for byte, the trace's header, row count and every cell that
is not a float (levels, k, flags), each trace float within
``EXAMPLE_TOL`` relative, and the summary's keys, integers (K), strings
(stop reasons), flags and the whole of ``rho`` and ``theoremChecks``
exactly, its other floats (final residuals) within ``EXAMPLE_TOL``.  Both
runs must have exited 0, which CI checks as it runs them.

``ball-points HEAD BASE`` compares two outputs of CI's projection
script, one line per projection: its exponents, weighting and set kind,
then the projection's bytes as hex or the message of its
NonConvergence.  Each line keeps its prefix and its kind, a point or the
same message; points agree within ``POINT_TOL`` of their largest entry.
At the end of the float range a last-bit move can decide whether a
search walks to its limit, so a line may trade a point for "root outside
floating-point range", or the reverse; each such line is printed.

Each comparison prints what moved and exits 1 on the first breach of its
rules.
"""

import csv
import math
import os
import sys

import numpy as np
import yaml

MANIFEST = os.path.join("examples", "MOVES")
# Sized from the first declared move, the closed-form coordinate solve of
# the off-centre ball at r = 3 and r = 1.5: trace floats moved by up to
# 1.6e-13 relative and final residuals by up to 2.3e-14; projections by
# up to 4.0e-11 of their largest entry at (r, p) = (3, 2) and 2.5e-14 at
# the other pairs.
EXAMPLE_TOL = 1e-12
POINT_TOL = 1e-10
RANGE_END = "NonConvergence: root outside floating-point range"
EXACT_KEYS = ("rho", "theoremChecks")


class Breach(Exception):
    """An output, or the manifest, breaks a rule of its comparison."""


def manifest_lines(root):
    path = os.path.join(root, MANIFEST)
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return fh.read().splitlines()


def declared(base, head="."):
    """The names of the manifest lines that head adds to base's."""
    old, new = manifest_lines(base), manifest_lines(head)
    if new[:len(old)] != old:
        raise Breach(f"{MANIFEST}: the base's lines must stay its first "
                     f"lines, unchanged and in order")
    names = []
    for line in new[len(old):]:
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(maxsplit=2)
        if len(fields) < 3 or not fields[1].isdigit():
            raise Breach(f"{MANIFEST}: {line!r} is not "
                         f"'<name> <number> <reason>'")
        name = fields[0]
        if name != "ball-points" and not os.path.exists(
                os.path.join(head, "examples", name + ".yaml")):
            raise Breach(f"{MANIFEST}: {name!r} is neither an example nor "
                         f"ball-points")
        names.append(name)
    return names


def close(a, b, tol):
    """``|a - b| <= tol * max(|a|, |b|)`` for finite a and b."""
    return (math.isfinite(a) and math.isfinite(b)
            and abs(a - b) <= tol * max(abs(a), abs(b)))


def as_float(cell):
    """The float a trace cell or summary value holds, or None for an
    integer, a flag, a string or an empty cell."""
    if isinstance(cell, float):
        return cell
    if not isinstance(cell, str) or cell.lstrip("-").isdigit():
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def compare_trace(head, base):
    with open(head) as fh:
        rows = list(csv.reader(fh))
    with open(base) as fh:
        old = list(csv.reader(fh))
    if len(rows) != len(old) or rows[:1] != old[:1]:
        raise Breach(f"{head}: {len(rows)} rows against {len(old)}, or "
                     f"another header")
    worst = 0.0
    for n, (row, was) in enumerate(zip(rows, old)):
        for col, cell, cell_was in zip(rows[0], row, was):
            if cell == cell_was:
                continue
            a, b = as_float(cell), as_float(cell_was)
            if a is None or b is None or not close(a, b, EXAMPLE_TOL):
                raise Breach(f"{head}: row {n} {col} is {cell}, was "
                             f"{cell_was}")
            if a != b:      # not +0.0 against -0.0
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    return worst


def compare_summary(head_node, base_node, path, exact=False):
    """The largest relative move of a float in the summary tree."""
    if isinstance(head_node, dict) and isinstance(base_node, dict):
        if list(head_node) != list(base_node):
            raise Breach(f"{path}: keys {list(head_node)}, were "
                         f"{list(base_node)}")
        return max([compare_summary(head_node[k], base_node[k],
                                    f"{path}.{k}", exact or k in EXACT_KEYS)
                    for k in head_node], default=0.0)
    if isinstance(head_node, list) and isinstance(base_node, list):
        if len(head_node) != len(base_node):
            raise Breach(f"{path}: {len(head_node)} entries, were "
                         f"{len(base_node)}")
        return max([compare_summary(a, b, f"{path}[{n}]", exact)
                    for n, (a, b) in enumerate(zip(head_node, base_node))],
                   default=0.0)
    if head_node == base_node and type(head_node) is type(base_node):
        return 0.0
    if (exact or not isinstance(head_node, float)
            or not isinstance(base_node, float)
            or not close(head_node, base_node, EXAMPLE_TOL)):
        raise Breach(f"{path} is {head_node!r}, was {base_node!r}")
    return abs(head_node - base_node) / max(abs(head_node), abs(base_node))


def compare_example(head, base):
    for ext in ("out", "err"):
        with open(f"{head}.{ext}", "rb") as a, open(f"{base}.{ext}",
                                                   "rb") as b:
            if a.read() != b.read():
                raise Breach(f"{head}.{ext} differs from {base}.{ext}")
    trace = compare_trace(f"{head}.csv", f"{base}.csv")
    with open(f"{head}.yaml") as a, open(f"{base}.yaml") as b:
        summary = compare_summary(yaml.safe_load(a), yaml.safe_load(b),
                                  "summary")
    print(f"{head}: trace floats moved by up to {trace:.3g} relative, "
          f"summary floats by up to {summary:.3g}")


def split_point_line(line):
    """``(prefix, message)`` of a NonConvergence line, or ``(prefix,
    point)`` with the point as a float array."""
    if "NonConvergence: " in line:
        prefix, _, message = line.partition("NonConvergence: ")
        return prefix, "NonConvergence: " + message
    prefix, _, hexed = line.rpartition(" ")
    return prefix + " ", np.frombuffer(bytes.fromhex(hexed))


def compare_ball_points(head, base):
    with open(head) as fh:
        lines = fh.read().splitlines()
    with open(base) as fh:
        old = fh.read().splitlines()
    if len(lines) != len(old):
        raise Breach(f"{head}: {len(lines)} lines, were {len(old)}")
    moved, worst = 0, 0.0
    for n, (line, was) in enumerate(zip(lines, old), 1):
        if line == was:
            continue
        (prefix, got), (prefix_was, want) = (split_point_line(line),
                                             split_point_line(was))
        if prefix != prefix_was:
            raise Breach(f"{head}:{n}: prefix {prefix!r}, was "
                         f"{prefix_was!r}")
        messages = [m for m in (got, want) if isinstance(m, str)]
        if messages:
            # Two messages differ, so only a point and RANGE_END pass.
            if messages != [RANGE_END]:
                raise Breach(f"{head}:{n}: {line}, was {was}")
            print(f"{head}:{n}: at the end of the float range: "
                  f"{line[:72]} (was {was[:72]})")
            continue
        if got.shape != want.shape:
            raise Breach(f"{head}:{n}: {got.size} entries, were {want.size}")
        scale = max(np.max(np.abs(got)), np.max(np.abs(want)))
        move = float(np.max(np.abs(got - want)) / scale)
        if not move <= POINT_TOL:
            raise Breach(f"{head}:{n}: a point moved by {move:.3g} of its "
                         f"largest entry")
        moved, worst = moved + 1, max(worst, move)
    print(f"{head}: {moved} points moved by up to {worst:.3g} of their "
          f"largest entry")


def main(argv):
    try:
        if argv[:1] == ["declared"] and len(argv) == 2:
            for name in declared(argv[1]):
                print(name)
        elif argv[:1] == ["example"] and len(argv) == 3:
            compare_example(argv[1], argv[2])
        elif argv[:1] == ["ball-points"] and len(argv) == 3:
            compare_ball_points(argv[1], argv[2])
        else:
            sys.exit(__doc__.split("\n\n")[1])
    except Breach as exc:
        print(f"moves: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
