"""Benchmark of the projsd solver, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  Workloads are listed in
``perfbench/METRICS.md``.  Each run builds the workload's cases from the
seed, solves them back to back in whole passes (a closed loop: the next
solve starts when the previous one returns) for about S seconds, checks
every solve, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with no instrumentation in
the timed solves.  ``--trace 1`` alternates untraced and traced solves of
the same cases and reports the per-layer split from the traced ones.

The process exits 0 only when every check passed.  Results, the
environment and the span dump are written under ``perfbench/out/``.
"""

import os

# One process, BLAS and OpenMP pinned to one thread; must precede numpy.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
TAIL_BEYOND = 10


def _import_library():
    """Put this checkout's ``src`` first on the path and import projsd
    from it; exit non-zero when the checkout has no sources."""
    if not os.path.isfile(os.path.join(SRC, "projsd", "__init__.py")):
        sys.exit("perfbench: no src/projsd in this checkout")
    sys.path.insert(0, SRC)
    import projsd
    if not os.path.abspath(projsd.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: projsd imported from {projsd.__file__}, "
                 f"not from {SRC}")


def tail(values):
    """The value with TAIL_BEYOND values above it and the percentile that
    is; the maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, "none"
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    return ordered[n - TAIL_BEYOND - 1], \
        f"p{100.0 * (n - TAIL_BEYOND) / n:.1f} of {n}"


def run_passes(seconds, one_pass):
    """Whole passes over the cases until the next pass would end past
    `seconds`; at least one."""
    start = perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return passes


class SpeedProbe:
    """Measures how fast the machine runs at a moment, with a fixed
    reference kernel that uses no projsd code.

    On a shared host the CPU's speed changes by up to 50% within seconds,
    more than any statistic over one run can average out.  The kernel
    runs right before and right after every timed solve and every set-up
    probe, and a timing is reported at the reference speed: its wall time
    times the kernel's nominal time over the mean of the two kernel times
    around it.  Each workload's kernel is made of the parts that match its
    own costs (see ``problems.SPEED_KERNEL``).
    """

    # Part -> nominal time in seconds: its typical time on the 2-vCPU
    # guest the benchmark was tuned on, so that times at the reference
    # speed read close to wall times there.
    NOMINAL_S = {"interp": 0.008, "small_matvec": 0.003,
                 "dense_matvec": 0.008}

    def __init__(self, parts):
        import numpy as np
        rng = np.random.default_rng(0)
        self._tiny = rng.standard_normal(8)
        self._small = (rng.standard_normal((256, 256)),
                       rng.standard_normal(256))
        self._dense = (rng.standard_normal((1024, 1024)),
                       rng.standard_normal(1024))
        self._parts = [getattr(self, "_" + part) for part in parts]
        self.reference_s = sum(self.NOMINAL_S[part] for part in parts)
        self.samples: list[float] = []

    def _interp(self):
        """Interpreter overhead and numpy calls on tiny arrays."""
        x, acc, table = self._tiny, 0.0, {}
        for i in range(2700):
            x = x * 0.999 + 0.001
            acc += math.sqrt(float(x @ x))
            table[i & 63] = acc

    def _small_matvec(self):
        """A cache-resident matrix-vector product."""
        matrix, vector = self._small
        for _ in range(270):
            matrix @ vector

    def _dense_matvec(self):
        """A matrix-vector product streaming 8 MB, as a d = 1024 model."""
        matrix, vector = self._dense
        for _ in range(20):
            matrix @ vector

    def sample(self):
        """Time one kernel run, in seconds."""
        t0 = perf_counter()
        for part in self._parts:
            part()
        self.samples.append(perf_counter() - t0)
        return self.samples[-1]

    def bracket(self, timed):
        """Run `timed()` between the last kernel sample and a new one and
        return its result and the factor that takes a wall time measured
        in it to the reference speed.  Call `sample()` once before a
        series of brackets."""
        before = self.samples[-1]
        out = timed()
        after = self.sample()
        return out, self.reference_s / ((before + after) / 2)


def timing_metrics(times, spent, iterations):
    """solve_s.p50, solve_s.tail, solves_per_s and iter_us.p50 from the
    time of every solve (inf when it failed), the time spent in all of
    them and the K of each solve (None when unknown), and the label of the
    tail percentile."""
    completed = sum(math.isfinite(t) for t in times)
    per_iter = [1e6 * t / k for t, k in zip(times, iterations)
                if math.isfinite(t) and k]
    tail_s, tail_at = tail(times)
    return {
        "solve_s.p50": (statistics.median(times), "s"),
        "solve_s.tail": (tail_s, "s"),
        "solves_per_s": (completed / spent, "1/s"),
        "iter_us.p50": (statistics.median(per_iter) if per_iter else 0.0,
                        "us"),
    }, tail_at


def environment(cases):
    import numpy
    import scipy
    import yaml
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True,
                             text=True, timeout=10).stdout
        env["caches"] = {k: v for k, v in (
            line.split(None, 1) for line in out.splitlines()
            if "CACHE_SIZE" in line and len(line.split()) == 2)}
    except (OSError, subprocess.SubprocessError):
        env["caches"] = "unavailable"
    matrices = {id(c.model): c.model.matrix.nbytes
                for c in cases if hasattr(c, "model")}
    env["data"] = {
        "cases": len(cases),
        "model_matrix_bytes": sum(matrices.values()),
        "dims": sorted({c.space.dim for c in cases if hasattr(c, "space")}),
    }
    return env


def measure_setup(workload, seed, speed):
    """Median time, at the reference speed and in wall time, of a fresh
    process that imports projsd and builds the workload's cases."""
    wall, ref = [], []

    def probe():
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        return perf_counter() - t0

    speed.sample()
    for _ in range(SETUP_PROBES):
        w, factor = speed.bracket(probe)
        wall.append(w)
        ref.append(w * factor)
    return statistics.median(ref), statistics.median(wall)


class Bench:
    """Runs and checks solves of one workload's cases."""

    def __init__(self, workload, cases):
        import problems
        self.problems = problems
        self.workload = workload
        self.cases = cases
        self.tol = problems.REL_ERROR_TOL[workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.rel_errors: dict[str, float] = {}
        self.iterations: dict[str, int] = {}

    def solve(self, case, call=None):
        """One timed solve followed by its (untimed) checks.  Returns the
        wall time and whether the solve passed."""
        self.attempted += 1
        first = case.reference is None
        t0 = perf_counter()
        try:
            out = (call or case.solve)()
        except Exception as exc:  # a raising solve is a failed solve
            self.failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
            return perf_counter() - t0, False
        dt = perf_counter() - t0
        errors = case.check(out)
        if first and not errors:
            rel = case.rel_error(out)
            self.rel_errors[case.label] = rel
            self.iterations[case.label] = case.iterations(out)
            if not rel <= self.tol:
                errors.append(f"{case.label}: rel_error {rel} > {self.tol}")
            if getattr(case, "spot_check", False):
                errors += self.problems.three_point_failures(case, out)
        self.failures += errors
        return dt, not errors

    def peak_alloc_mb(self):
        """Median over one case of each design of the traced heap peak of
        one solve, in a pass of its own that is not timed.  (Copies of a
        design differ by a symmetry and run the same iterations.)"""
        peaks = []
        sample = {case.design: case for case in reversed(self.cases)}
        for case in sample.values():
            tracemalloc.start()
            try:
                case.solve()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return statistics.median(peaks) / 1e6

    def timed(self, seconds, speed):
        """End-to-end metrics over every timed solve, at the reference
        speed of `speed`, and the same timings in wall time.  A failed
        solve counts as infinitely slow, and the time it took counts in
        the time spent."""
        wall, ref, iters = [], [], []
        spent = {"wall": 0.0, "ref": 0.0}

        def one_pass():
            for case in self.cases:
                (dt, ok), factor = speed.bracket(lambda: self.solve(case))
                spent["wall"] += dt
                spent["ref"] += dt * factor
                wall.append(dt if ok else math.inf)
                ref.append(dt * factor if ok else math.inf)
                iters.append(self.iterations.get(case.label))

        speed.sample()
        passes = run_passes(seconds, one_pass)
        metrics, tail_at = timing_metrics(ref, spent["ref"], iters)
        wall_metrics, _ = timing_metrics(wall, spent["wall"], iters)
        metrics.update({
            "iterations.mean": (statistics.fmean(self.iterations.values())
                                if self.iterations else 0.0, "count"),
            "rel_error.max": (max(self.rel_errors.values(), default=0.0),
                              "ratio"),
            "peak_alloc_mb": (self.peak_alloc_mb(), "MB"),
        })
        notes = {"passes": passes, "solves": self.attempted,
                 "cases": len(self.cases),
                 "solve_s.tail": tail_at + " solves",
                 "wall": {k: v for k, (v, _) in wall_metrics.items()}}
        return metrics, notes

    def traced(self, seconds, seed):
        import spans
        rec = spans.SpanRecorder()
        inst = spans.Instrumentation(rec)
        root = rec.name_id(spans.ROOT)
        untraced, traced = [], []
        n_traced = iters = 0

        def traced_call(case):
            def call():
                with inst:
                    rec.open(root)
                    try:
                        return case.solve()
                    finally:
                        rec.close()
            return call

        def one_pass():
            nonlocal n_traced, iters
            for case in self.cases:
                dt, ok = self.solve(case)
                untraced.append(dt if ok else math.inf)
                dt, ok = self.solve(case, traced_call(case))
                traced.append(dt if ok else math.inf)
                n_traced += 1
                iters += self.iterations.get(case.label, 0)

        passes = run_passes(seconds, one_pass)
        if not inst.restored():
            self.failures.append("instrumentation left a wrapper installed")
        single_k = None
        if any(isinstance(c, self.problems.CliCase) for c in self.cases):
            single_k = self.problems.single_level_iterations(seed)
            if single_k != self.problems.SINGLE_LEVEL_K:
                self.failures.append(
                    f"single-level K {single_k} != "
                    f"{self.problems.SINGLE_LEVEL_K}")
        dump = os.path.join(OUT, f"spans-{self.workload}-seed{seed}.csv.gz")
        rec.dump(dump)
        metrics = layer_metrics(rec, inst, n_traced, iters, self.cases,
                                single_k)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0,
            "fraction")
        notes = {"passes": passes, "traced_solves": n_traced,
                 "spans": rec.n_spans, "span_dump": os.path.relpath(dump,
                                                                    ROOT)}
        return metrics, notes


def layer_metrics(rec, inst, n, iters, cases, single_k):
    """Per-layer metrics from the span totals, per traced solve unless the
    name says otherwise.  `single_k` is K of the single-level comparison
    run (multilevel only)."""
    import problems
    from spans import LAYERS, ROOT as ROOT_SPAN, layer_of
    n = max(n, 1)
    iters = max(iters, 1)

    def named(name):
        return lambda s: s == name

    def method(layer, meth):
        return lambda s: layer_of(s) == layer and s.endswith("." + meth)

    def per_solve_s(field, pred):
        return rec.total(field, pred) / 1e9 / n

    def calls(pred):
        return rec.total("calls", pred) / n

    root_ns = max(rec.total("total_ns", named(ROOT_SPAN)), 1)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.share"] = (
            rec.total("self_ns", lambda s, L=layer: layer_of(s) == L)
            / root_ns, "fraction")

    # geometry
    m["geometry.dual.calls_per_iter"] = (
        rec.total("calls", named("geometry.SpaceGeometry.dual")) / iters,
        "count")
    m["geometry.duality_map.calls"] = (calls(named("geometry.duality_map")),
                                       "count")
    m["geometry.duality_map.self_s"] = (
        per_solve_s("self_ns", named("geometry.duality_map")), "s")
    m["geometry.dual_norm.self_s"] = (
        per_solve_s("self_ns", named("geometry.dual_norm")), "s")
    m["geometry.bregman_distance.calls"] = (
        calls(named("geometry.bregman_distance")), "count")
    m["geometry.bregman_distance.self_s"] = (
        per_solve_s("self_ns", named("geometry.bregman_distance")), "s")
    m["geometry.norm.calls"] = (calls(named("geometry.norm")), "count")

    # sets
    projections = inst.projections
    moved_ms = [dur / 1e6 for _, moved, dur in projections if moved]
    m["sets.bregman_project.calls"] = (
        calls(named("sets.bregman_project")), "count")
    m["sets.bregman_project.self_s"] = (
        per_solve_s("self_ns", named("sets.bregman_project")), "s")
    # Inclusive: the geometry calls a projection makes count here too.
    m["sets.project_share"] = (
        rec.total("total_ns", named("sets.bregman_project")) / root_ns,
        "fraction")
    m["sets.project_ms.p50"] = (
        statistics.median(moved_ms) if moved_ms else 0.0, "ms")
    m["sets.project_ms.tail"] = (tail(moved_ms)[0], "ms")
    m["sets.moved_ratio"] = (
        len(moved_ms) / len(projections) if projections else 0.0,
        "fraction")
    for kind, cls in (("box", "Box"), ("ball", "Ball"),
                      ("subspace", "CoordinateSubspace")):
        of_kind = [moved for k, moved, _ in projections if k == cls]
        m[f"sets.moved_ratio.{kind}"] = (
            sum(of_kind) / len(of_kind) if of_kind else 0.0, "fraction")
    inner = rec.total_under(lambda s: layer_of(s) == "geometry",
                            lambda s: layer_of(s) == "sets", field=0)
    m["sets.inner_calls_per_projection"] = (
        inner / len(moved_ms) if moved_ms else 0.0, "count")
    m["sets.contains.calls"] = (calls(method("sets", "contains")), "count")

    # models
    for meth in ("eval", "apply_adjoint"):
        m[f"models.{meth}.self_s"] = (
            per_solve_s("self_ns", method("models", meth)), "s")
    m["models.data_norm.self_s"] = (
        per_solve_s("self_ns", named("models.data_norm")), "s")
    m["models.eval.calls"] = (calls(method("models", "eval")), "count")
    m["models.bytes_computed"] = (inst.model_bytes / n, "bytes")

    # solver
    for fn in ("step_quantities", "sd_step"):
        m[f"solver.{fn}.self_s"] = (
            per_solve_s("self_ns", named(f"solver.{fn}")), "s")
    m["solver.loop_self_us_per_iter"] = (
        rec.total("self_ns", named("solver.run_algorithm1")) / 1e3 / iters,
        "us")
    drivers = {"solver.run_algorithm1", "multilevel.run_multi_level"}
    diag_ns = (
        rec.total_under(named("geometry.bregman_distance"),
                        lambda s: s in drivers)
        + rec.total_under(named("solver.compute_ctilde"),
                          named("solver.run_algorithm1"))
        + rec.total("total_ns", named("solver.convergence_radius"))
        + rec.total_under(named("multilevel.Level.rho"),
                          named("multilevel.run_multi_level")))
    m["solver.diagnostics_s"] = (diag_ns / 1e9 / n, "s")

    # multilevel and cli
    cli = [c for c in cases if isinstance(c, problems.CliCase)]
    ks = cli[0].level_iterations() if cli else []
    for i in range(len(problems.MULTILEVEL_K)):
        m[f"multilevel.k.level{i}"] = (ks[i] if i < len(ks) else 0, "count")
    m["multilevel.iter_ratio_vs_single"] = (
        sum(ks) / single_k if single_k else 0.0, "ratio")
    m["multilevel.validate_schedule_s"] = (
        per_solve_s("total_ns", named("multilevel.validate_schedule")), "s")
    m["cli.parse_config_s"] = (
        per_solve_s("total_ns", named("cli.parse_config")), "s")
    m["cli.self_s"] = (
        per_solve_s("self_ns", lambda s: layer_of(s) == "cli"), "s")
    rows, size = cli[0].trace_stats() if cli else (0, 0)
    m["cli.trace_rows"] = (rows, "count")
    m["cli.trace_bytes"] = (size, "bytes")
    return m


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    _import_library()
    import problems
    if args.workload not in problems.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose "
                 f"from {', '.join(problems.WORKLOADS)}")
    build = problems.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.setup_probe:
            build(args.seed, workdir)
            return 0
        speed = SpeedProbe(problems.SPEED_KERNEL[args.workload])
        if not args.trace:
            setup_s, setup_wall_s = measure_setup(args.workload, args.seed,
                                                  speed)
        cases = build(args.seed, workdir)
        bench = Bench(args.workload, cases)
        if args.trace:
            metrics, notes = bench.traced(args.seconds, args.seed)
        else:
            metrics, notes = bench.timed(args.seconds, speed)
            metrics["setup_s"] = (setup_s, "s")
            notes["wall"]["setup_s"] = setup_wall_s
            notes["reference_kernel_ms.p50"] = \
                1e3 * statistics.median(speed.samples)
        env = environment(cases)

    failed = len(bench.failures)
    correct = failed == 0
    notes["failed_frac"] = failed / max(bench.attempted, 1)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{bench.attempted} solves attempted, {failed} failed "
          f"(failed_frac {notes['failed_frac']:g})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for key, value in notes.items():
        if key != "failed_frac":
            print(f"  note {key}: {value}")
    for msg in bench.failures[:20]:
        print(f"  FAILED {msg}")
    print("  environment: " + json.dumps(env, sort_keys=True))

    # A failed solve makes some timings infinite; JSON has no infinity.
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, notes=notes,
                  environment=env, failures=bench.failures[:100])
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
