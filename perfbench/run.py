#!/usr/bin/env python3
"""Benchmark sigapprox on one workload and print one JSON result line.

    python3 perfbench/run.py --workload wiggly --seed 1 --seconds 20 --trace 0

A run sets up (timed in fresh interpreters), then repeats rounds for
`--seconds` seconds, at least MIN_ROUNDS of them.  A round is six
operations: certify, export, reload, query, explain and one CLI
`approximate` subprocess.  Every operation's output is checked by
perfbench/checks.py; one that raises or fails a check counts as failed.
Each timing is scaled to a reference machine speed by a calibration kernel
run just before and after it, and each end-to-end metric is the median of
its samples over the run, so that neither one stall nor a slow spell of a
shared machine sets it.  With `--trace 1` every other round records spans
and per-layer probes, and the result holds the per-layer metrics and the
tracing overhead instead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Optional

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import (  # noqa: E402
    OUT_DIR,
    ROOT,
    SRC,
    checks,
    import_library,
    peak_rss_mb,
)
from perfbench.spans import NullTracer, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    explain_points,
    query_points,
    rng_for,
)

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # traced and untraced rounds alternate; both need two
SETUP_REPS = 9
CHILD_TIMEOUT_S = 150.0
PARSE_REPS = 50
SWEEP_POINTS = 8192
SIGMOID_QUERY_POINTS = 64
# sigma(t) is exactly 1.0 above ~36.7 and 0.0 below ~-745 in double, so
# only units with arguments in this window do sigmoid work.
WINDOW = (-747.0, 37.0)

MB = 1024.0 * 1024.0

# The speed of this kind of shared machine drifts by tens of percent within
# milliseconds and between runs, and moves every timing together.  Timings
# are therefore reported at a reference speed: a fixed pure-Python kernel,
# shaped like the library's hot loop but calling none of its code, is timed
# while a stage runs (a Speedometer tick every TICK_S, in the main thread,
# its own time taken off the stage) and just before and after it, and
#     reported time = raw time * CAL_REF_NS / (mean ns per kernel step),
# that is, seconds at the speed where one kernel step takes CAL_REF_NS,
# about the fastest speed seen on the 2-core Xeon where the reference
# figures were taken.  A stage long enough for MIN_TICKS ticks is scaled by
# its ticks alone.  Query calls are too short for ticks: they are timed in
# chunks of QUERY_CHUNK calls with a short kernel between chunks.
CAL_REF_NS = 125.0
CAL_STEPS = 75_000
CAL_MICRO_STEPS = 4_000
TICK_S = 0.05
TICK_STEPS = 2_000
MIN_TICKS = 8
QUERY_CHUNK = 128
# export, reload and explain are short; timing them STAGE_REPS times per
# round gives their medians more samples
STAGE_REPS = 2
_CAL_TABLE = tuple(j * 1e-3 for j in range(4096))


def calibration_s(steps: int = CAL_STEPS) -> float:
    """Wall time of `steps` steps of the calibration kernel: a table
    lookup, an exp and a divide per step, as in a windowed sigmoid sum."""
    table, exp = _CAL_TABLE, math.exp
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(steps):
        v = table[(i * 37) & 4095] - 2.0
        acc += 1.0 / (1.0 + exp(-v))
    return time.perf_counter() - t0


def speed_factor(before: float, after: float, steps: int) -> float:
    """Scales a raw time to the reference speed, from the calibration
    timings of `steps` steps taken just before and just after it."""
    return 2.0 * steps * CAL_REF_NS * 1e-9 / (before + after)


class Speedometer:
    """Samples the machine's speed while a stage runs.  A real-time timer
    signal every TICK_S runs TICK_STEPS kernel steps in the main thread
    (between bytecodes, or while the process waits for a child) and records
    their time; `stolen` is the time the ticks took from the stage."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum: int, frame: Any) -> None:
        t0 = time.perf_counter()
        self.ticks.append(calibration_s(TICK_STEPS))
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def wait_child(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for `proc` and return its exit code; kill it and raise
    TimeoutError once `timeout` seconds have passed.  Waiting on a pidfd
    returns the moment the child exits (Popen.wait with a timeout polls at
    up to 50 ms) and leaves SIGALRM to the Speedometer."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
        proc.wait()
        raise TimeoutError(f"{proc.args!r} ran longer than {timeout} s")
    return proc.wait()


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    stderr: str


def run_child(argv: list[str], name: str) -> ChildRun:
    """Run a Python child against this checkout's `src` and wait for it.
    Its stdout and stderr go to files in OUT_DIR."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out_path = os.path.join(OUT_DIR, name + ".out")
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        code = wait_child(proc, CHILD_TIMEOUT_S)
    with open(out_path, encoding="utf-8") as fh, \
            open(out_path + ".err", encoding="utf-8") as fe:
        return ChildRun(code, fh.read(), fe.read())


def counting_spec_class(lib: ModuleType) -> type:
    """A FunctionSpec that counts its own calls, for `expressions.f_calls`."""

    @dataclass(frozen=True)
    class CountingSpec(lib.FunctionSpec):
        calls: list = field(default_factory=lambda: [0], compare=False, repr=False)

        def __call__(self, x: float) -> float:
            self.calls[0] += 1
            return lib.FunctionSpec.__call__(self, x)

    return CountingSpec


def nearest_rank(sorted_values: list, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


@dataclass
class Round:
    """What one round's operations hand to the next ones."""

    traced: bool
    spec: Any = None
    recipe: Any = None
    g: Any = None
    report: Any = None
    grid: int = 0
    doc_path: str = ""
    units: Any = None
    inproc_s: float = 0.0  # sum of the in-process stage timings


class Bench:
    def __init__(self, lib: ModuleType, workload: Workload, seed: int,
                 seconds: float, trace: bool, min_rounds: Optional[int] = None):
        self.lib = lib
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.min_rounds = min_rounds or (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
        self.engine = sys.modules["sigapprox.engine"]
        self.counting_spec = counting_spec_class(lib)
        self.tracer = Tracer()
        self.null = NullTracer()
        self.check_rng = rng_for(seed, "checks")
        self.queries = query_points(workload, seed)
        self.explain_xs: Optional[list[float]] = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.query_ns: list[float] = []
        self.cal: list[float] = []
        self.inproc = {True: [], False: []}
        self.attempted = 0
        self.failed = 0
        self.correct = True

    # --- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Time SETUP_REPS fresh interpreters that import the library and
        draw the query points.  One untimed probe and one untimed CLI run
        first write the bytecode caches, which users pay once."""
        probe = [sys.executable, os.path.join(ROOT, "perfbench", "probe.py"),
                 self.wl.name, str(self.seed)]
        warm = [self._run_child(probe, "setup"), self._recipe_child()]
        self._measure(None, "setup_s", lambda: warm.append(self._run_child(probe, "setup")),
                      SETUP_REPS)
        bad = [c for c in warm if c.returncode != 0]
        if bad:
            raise RuntimeError(f"set-up child failed with exit code {bad[0].returncode}")

    def _run_child(self, argv: list[str], name: str) -> ChildRun:
        return run_child(argv, f"{self.wl.name}-{name}")

    def _recipe_child(self) -> ChildRun:
        argv = [sys.executable, "-m", "sigapprox.cli", "recipe", *self.wl.cli_flags()]
        return self._run_child(argv, "recipe")

    # --- rounds -----------------------------------------------------------

    def run(self) -> dict:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.setup()
        start = time.perf_counter()
        rounds = 0
        while rounds < self.min_rounds or time.perf_counter() - start < self.seconds:
            self.round(traced=self.trace and rounds % 2 == 0)
            rounds += 1
        metrics = self.layer_metrics() if self.trace else self.end_to_end_metrics()
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def round(self, traced: bool) -> None:
        st = Round(traced)
        tr = self.tracer if traced else self.null
        with tr.span("round"):
            for op in (self.certify, self.export, self.reload, self.query,
                       self.explain, self.cli):
                self._attempt(op, st, tr)
            if traced:
                with tr.span("layers"):
                    self.layers(st, tr)
        self.inproc[traced].append(st.inproc_s)

    def _attempt(self, op, st: Round, tr) -> None:
        name = op.__name__
        self.attempted += 1
        try:
            with tr.span(name):
                failures = op(st, tr)
        except Exception:
            print(f"[{self.wl.name}] {name} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        if failures:
            self.failed += 1
            self.correct = False
            for msg in failures[:5]:
                print(f"[{self.wl.name}] {name} check failed: {msg}", file=sys.stderr)

    def _measure(self, st: Optional[Round], metric: str, stage, reps: int = 1):
        """Time `stage()` `reps` times, record the times at the reference
        speed under `metric`, and return the last result.  Each repetition
        runs under a Speedometer and between two calibrations; its speed is
        that of its ticks when there are MIN_TICKS of them, else that of
        the calibrations and ticks together.  `st`, when given, adds the
        mean time to the round's in-process total."""
        before = calibration_s(CAL_STEPS)
        for _ in range(reps):
            with Speedometer() as meter:
                t0 = time.perf_counter()
                result = stage()
                dt = time.perf_counter() - t0 - meter.stolen
            after = calibration_s(CAL_STEPS)
            if len(meter.ticks) >= MIN_TICKS:
                kernel_s, steps = sum(meter.ticks), TICK_STEPS * len(meter.ticks)
            else:
                kernel_s = before + after + sum(meter.ticks)
                steps = 2 * CAL_STEPS + TICK_STEPS * len(meter.ticks)
            self.cal.append(kernel_s / steps)
            dt *= CAL_REF_NS * 1e-9 * steps / kernel_s
            self.samples[metric].append(dt)
            if st is not None:
                st.inproc_s += dt / reps
            before = after
        return result

    def _pick(self, n: int, k: int) -> list[int]:
        return sorted(self.check_rng.sample(range(n), min(n, k)))

    def certify(self, st: Round, tr) -> list[str]:
        lib, wl = self.lib, self.wl
        spec_cls = self.counting_spec if st.traced else lib.FunctionSpec

        def certify():
            with tr.span("expressions.from_text"):
                spec = spec_cls.from_text(wl.text, wl.a, wl.b,
                                          lipschitz=wl.lipschitz, sup_bound=wl.sup)
            with tr.span("engine.recipe"):
                recipe = lib.compute_recipe(spec, wl.eps)
            with tr.span("engine.build"):
                g = lib.build_approximant(spec, recipe)
            grid = wl.grid_size(recipe.n)
            with tr.span("engine.validate"):
                report = lib.validate(g, spec, wl.eps, grid)
            return spec, recipe, g, report, grid

        spec, recipe, g, report, grid = self._measure(st, "certify_s", certify)
        st.spec, st.recipe, st.g, st.report, st.grid = spec, recipe, g, report, grid
        if st.traced:
            self.counts["expressions.f_calls"].append(spec.calls[0])
            self.counts["engine.grid_points"].append(report.grid_size)
            self.counts["engine.units"].append(g.unit_count)
        if self.explain_xs is None:
            self.explain_xs = explain_points(wl, self.seed, recipe.n)

        n = recipe.n
        failures = [] if report.passed else [f"validate did not pass: {report!r}"]
        m_f = wl.sup if wl.sup is not None else recipe.m_f
        lip = wl.lipschitz if wl.lipschitz is not None else recipe.lipschitz
        failures += checks.recipe_failures(wl.a, wl.b, wl.eps, m_f, lip, n,
                                           recipe.h, recipe.w)
        if wl.lipschitz is None:
            failures += checks.estimate_failures(
                recipe.m_f, recipe.m_f_source, recipe.lipschitz,
                recipe.lipschitz_source, wl.analytic_sup, wl.analytic_lipschitz)
        pts = g.partition.points
        failures += checks.coefficient_failures(
            wl.plain, pts, g.coeff0, g.coeffs,
            [k + 2 for k in self._pick(n, wl.check_points)])
        xs = [wl.a + (wl.b - wl.a) * j / (grid - 1)
              for j in self._pick(grid, wl.check_points)]
        xs += [pts[k] for k in self._pick(n, 8) if wl.a < pts[k] < wl.b]
        xs.append(report.argmax_x)
        failures += checks.f_failures(wl.plain, [(x, spec(x)) for x in xs])
        failures += checks.sup_failures(
            [(x, lib.evaluate(g, x), wl.plain(x)) for x in xs],
            report.sup_error, wl.eps)
        return failures

    def export(self, st: Round, tr) -> list[str]:
        lib = self.lib
        path = os.path.join(OUT_DIR, f"{self.wl.name}-network.json")

        def export():
            with tr.span("export.to_doc"):
                doc = lib.to_network_document(st.g, st.recipe, st.spec)
            with tr.span("export.write"):
                lib.write_network_document(doc, path)
            return doc

        doc = self._measure(st, "export_s", export, STAGE_REPS)
        st.doc_path = path
        if st.traced:
            self.counts["export.doc_mb"].append(os.path.getsize(path) / MB)
        return checks.document_failures(doc, st.recipe.n, st.recipe.w)

    def reload(self, st: Round, tr) -> list[str]:
        lib = self.lib

        def reload():
            with tr.span("export.read"):
                doc = lib.read_network_document(st.doc_path)
            with tr.span("export.from_doc"):
                return doc, lib.approximant_from_document(doc)

        doc, g2 = self._measure(st, "reload_s", reload, STAGE_REPS)
        st.units = doc["units"]
        xs = [self.queries[j] for j in self._pick(len(self.queries), self.wl.check_points)]
        xs += [st.report.argmax_x, self.wl.a, self.wl.b]
        failures = checks.document_failures(doc, st.recipe.n, st.recipe.w)
        return failures + checks.round_trip_failures(
            [(x, lib.evaluate(st.g, x), lib.evaluate(g2, x)) for x in xs])

    def query(self, st: Round, tr) -> list[str]:
        evaluate, g, clock = self.lib.evaluate, st.g, time.perf_counter_ns
        xs = self.queries
        out = [0.0] * len(xs)
        lat = [0.0] * len(xs)
        before = calibration_s(CAL_MICRO_STEPS)
        with tr.span("engine.query", items=len(xs)):
            for c in range(0, len(xs), QUERY_CHUNK):
                chunk = range(c, min(c + QUERY_CHUNK, len(xs)))
                for j in chunk:
                    t0 = clock()
                    out[j] = evaluate(g, xs[j])
                    lat[j] = clock() - t0
                after = calibration_s(CAL_MICRO_STEPS)
                speed = speed_factor(before, after, CAL_MICRO_STEPS)
                for j in chunk:
                    lat[j] *= speed
                before = after
        self.query_ns += lat
        st.inproc_s += sum(lat) / 1e9
        picked = self._pick(len(xs), self.wl.naive_points)
        return checks.naive_g_failures(st.units, [(xs[j], out[j]) for j in picked])

    def explain(self, st: Round, tr) -> list[str]:
        lib, wl = self.lib, self.wl

        def explain():
            reports = []
            for x in self.explain_xs:
                with tr.span("engine.explain"):
                    reports.append(lib.error_decomposition(st.g, st.spec, st.recipe, x))
            return reports

        reports = self._measure(st, "explain_s", explain, STAGE_REPS)
        m_f = wl.sup if wl.sup is not None else st.recipe.m_f
        pts = st.g.partition.points
        failures = []
        for d in reports:
            if not (d.index_i >= 3 and pts[d.index_i] <= d.x <= pts[d.index_i + 1]):
                failures.append(f"x = {d.x!r} reported in cell {d.index_i}")
            failures += checks.decomposition_failures(
                wl.eps, m_f, d.i1, d.i2, lib.evaluate(st.g, d.x), wl.plain(d.x))
        return failures

    def cli(self, st: Round, tr) -> list[str]:
        wl = self.wl
        net = os.path.join(OUT_DIR, f"{wl.name}-cli-network.json")
        csv = os.path.join(OUT_DIR, f"{wl.name}-cli-samples.csv")
        argv = [sys.executable, os.path.join(ROOT, "perfbench", "cli_child.py"),
                "approximate", *wl.cli_flags()]
        if wl.grid is not None:
            argv += ["--grid", str(wl.grid)]
        argv += ["--out-network", net, "--out-samples", csv]
        child = self._measure(None, "cli_s", lambda: self._run_child(argv, "approximate"))
        tail = child.stderr.rsplit("VmHWM_MB ", 1)
        self.samples["cli_peak_rss_mb"].append(float(tail[1]) if len(tail) == 2
                                               else math.nan)
        failures = checks.cli_failures(
            child.returncode, child.stdout, st.recipe.n, st.report.sup_error,
            st.report.grid_size, estimated=wl.lipschitz is None)
        if child.returncode != 0:
            return failures
        if not filecmp.cmp(net, st.doc_path, shallow=False):
            failures.append("the CLI's network document differs from the library's")
        with open(csv, encoding="utf-8") as fh:
            failures += checks.samples_failures(
                fh, wl.a, wl.b, st.grid, wl.eps, st.report.sup_error, wl.plain,
                self._pick(st.grid, wl.check_points))
        return failures

    # --- per-layer probes (traced rounds only) -----------------------------

    def layers(self, st: Round, tr) -> None:
        lib, wl, g = self.lib, self.wl, st.g
        with tr.span("expressions.parse", items=PARSE_REPS):
            for _ in range(PARSE_REPS):
                lib.parse(wl.text)
        with tr.span("partition.unif_part"):
            lib.unif_part(wl.a, wl.b, st.recipe.n)

        # the validation grid: the uniform grid with the knots merged in
        pts = g.partition.points
        grid = sorted({wl.a + (wl.b - wl.a) * j / (st.grid - 1) for j in range(st.grid)}
                      | {p for p in pts if wl.a < p < wl.b})
        sweep = grid[::math.ceil(len(grid) / SWEEP_POINTS)]
        spec, evaluate = st.spec, lib.evaluate
        with tr.span("expressions.f_eval", items=len(sweep)):
            for x in sweep:
                spec(x)
        with tr.span("engine.g_eval", items=len(sweep)):
            for x in sweep:
                evaluate(g, x)

        xs = self.queries[:SIGMOID_QUERY_POINTS]
        centers = (pts[0],) + pts[2:]
        args = []
        for x in xs:
            lo = bisect_left(centers, x - WINDOW[1] / g.w)
            hi = bisect_right(centers, x - WINDOW[0] / g.w)
            args += [g.w * (x - c) for c in centers[lo:hi]]
        sigmoid = lib.sigmoid
        with tr.span("sigmoid.call", items=len(args)):
            for t in args:
                sigmoid(t)
        self.counts["sigmoid.calls_per_g"].append(self._count_sigmoid_calls(g, xs))

        with tr.span("partition.select_index", items=len(self.explain_xs)):
            for x in self.explain_xs:
                lib.select_index(g.partition, x)

        path = os.path.join(OUT_DIR, f"{wl.name}-samples.csv")
        with tr.span("export.samples"):
            lib.write_samples(g, spec, st.grid, path)
        self.counts["export.samples_mb"].append(os.path.getsize(path) / MB)

        with tr.span("cli.startup"):
            child = self._recipe_child()
        if child.returncode != 0:
            raise RuntimeError(f"sigapprox recipe exited with {child.returncode}")

    def _count_sigmoid_calls(self, g: Any, xs: list[float]) -> float:
        """Mean sigmoid calls per evaluate(), counted by wrapping the
        engine's `sigmoid` for the duration of the sweep."""
        engine, original = self.engine, self.engine.sigmoid
        calls = [0]

        def counted(t: float) -> float:
            calls[0] += 1
            return original(t)

        engine.sigmoid = counted
        try:
            for x in xs:
                self.lib.evaluate(g, x)
        finally:
            engine.sigmoid = original
        return calls[0] / len(xs)

    # --- results ----------------------------------------------------------

    def end_to_end_metrics(self) -> dict:
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        lat = sorted(self.query_ns)
        values = {
            "setup_s": (med["setup_s"], "s"),
            "certify_s": (med["certify_s"], "s"),
            "query_p50_us": (nearest_rank(lat, 0.50) / 1e3, "us"),
            "query_p99_us": (nearest_rank(lat, 0.99) / 1e3, "us"),
            "explain_s": (med["explain_s"], "s"),
            "export_s": (med["export_s"], "s"),
            "reload_s": (med["reload_s"], "s"),
            "cli_s": (med["cli_s"], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "cli_peak_rss_mb": (med["cli_peak_rss_mb"], "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def layer_metrics(self) -> dict:
        per = self.tracer.per_call_ns
        count = {k: statistics.median(v) for k, v in self.counts.items()}
        overhead = (statistics.median(self.inproc[True])
                    / statistics.median(self.inproc[False]) - 1.0) * 100.0
        values = {
            "expressions.parse_us": (per("expressions.parse") / 1e3, "us"),
            "expressions.f_eval_us": (per("expressions.f_eval") / 1e3, "us"),
            "expressions.f_calls": (count["expressions.f_calls"], "count"),
            "engine.recipe_ms": (per("engine.recipe") / 1e6, "ms"),
            "engine.build_ms": (per("engine.build") / 1e6, "ms"),
            "engine.validate_s": (per("engine.validate") / 1e9, "s"),
            "engine.grid_points": (count["engine.grid_points"], "count"),
            "engine.units": (count["engine.units"], "count"),
            "engine.g_eval_us": (per("engine.g_eval") / 1e3, "us"),
            "engine.explain_us": (per("engine.explain") / 1e3, "us"),
            "sigmoid.call_ns": (per("sigmoid.call"), "ns"),
            "sigmoid.calls_per_g": (count["sigmoid.calls_per_g"], "count"),
            "partition.unif_part_ms": (per("partition.unif_part") / 1e6, "ms"),
            "partition.select_index_us": (per("partition.select_index") / 1e3, "us"),
            "export.to_doc_ms": (per("export.to_doc") / 1e6, "ms"),
            "export.write_ms": (per("export.write") / 1e6, "ms"),
            "export.doc_mb": (count["export.doc_mb"], "MB"),
            "export.read_ms": (per("export.read") / 1e6, "ms"),
            "export.from_doc_ms": (per("export.from_doc") / 1e6, "ms"),
            "export.samples_s": (per("export.samples") / 1e9, "s"),
            "export.samples_mb": (count["export.samples_mb"], "MB"),
            "cli.startup_s": (per("cli.startup") / 1e9, "s"),
            "trace.overhead_pct": (overhead, "%"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def speed(self) -> float:
        """Machine speed during the run relative to the reference speed;
        raw per-layer times times it read at the reference speed."""
        return CAL_REF_NS * 1e-9 / statistics.median(self.cal)

    def write_trace(self) -> str:
        """Write the spans and the self time by span name; returns the path."""
        path = os.path.join(OUT_DIR, f"trace-{self.wl.name}-{self.seed}.json")
        self_ms = {k: v / 1e6 for k, v in sorted(self.tracer.self_ns().items())}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": self.wl.name, "seed": self.seed,
                       "speed": self.speed(), "self_ms": self_ms,
                       "spans": self.tracer.to_json()}, fh)
        return path


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    try:
        lib = import_library()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One CPU for the run and its children: the Speedometer then samples the
    # core that the timed work, a CLI child included, runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(lib, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace))
    result = bench.run()
    if args.trace:
        path = bench.write_trace()
        print(f"spans written to {os.path.relpath(path, ROOT)}; machine speed "
              f"{bench.speed():.3f} of the reference; self time by span:")
        for name, ms in sorted(bench.tracer.self_ns().items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {ms / 1e6:12.3f} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
