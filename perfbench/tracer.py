"""Spans and counts around the public functions of each sketchsolve module.

The program is not changed: :class:`Tracer` replaces a function with a
recording wrapper in every ``sketchsolve`` module namespace that holds it (a
function imported by name is a separate binding in each importing module) and
puts the originals back on exit.  Spans stay in memory as
``[name, start, end, parent]`` and are written out after the run.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, span name); the span name None records counts only
TARGETS = (
    ("sketchsolve.rng", "stream", "rng.stream"),
    ("sketchsolve.sketch", "draw_sketch", "sketch.draw"),
    ("sketchsolve.sketch", "apply_sketch", "sketch.apply"),
    ("sketchsolve.sketch", "apply_sketch_t", "sketch.apply_t"),
    ("sketchsolve.sketch", "build_less_distribution", "sketch.leverage"),
    ("sketchsolve.linalg", "solve_psd", "linalg.solve_psd"),
    ("sketchsolve.linalg", "orth_rowspace", "linalg.orth_rowspace"),
    ("sketchsolve.matgen", "gen_spectral_matrix", "matgen.build"),
    ("sketchsolve.matgen", "make_system", "matgen.build"),
    ("sketchsolve.matgen", "save_matrix_csv", "expcli.io"),
    ("sketchsolve.solver", "solve", "solver.solve"),
    ("sketchsolve.solver", "project_step", "solver.project_step"),
    ("sketchsolve.solver", "estimate_rate", None),
    ("sketchsolve.spectral", "expected_projection", "spectral.expected_projection"),
    ("sketchsolve.spectral", "surrogate_vs_empirical", "spectral.surrogate_vs_empirical"),
    ("sketchsolve.randsvd", "err_monte_carlo", "randsvd.err_monte_carlo"),
    ("sketchsolve.randsvd", "residual_error", "randsvd.residual_error"),
    ("sketchsolve.newton", "rsn_solve", "newton.rsn_solve"),
    ("sketchsolve.newton", "rho_certificate", "newton.rho_certificate"),
    ("sketchsolve.newton", "full_newton", "newton.full_newton"),
    ("sketchsolve.newton", "logistic_objective", None),
    ("sketchsolve.expcli.plotdata", "emit_plot_data", "expcli.io"),
)

ROOT_SPAN = "expcli"
_OBJECTIVE_CALLBACKS = ("value", "gradient", "hessian")


class Tracer:
    """Context manager that traces calls into sketchsolve while it is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, fn, name: str | None, after=None):
        """Wrapper of ``fn`` that records a span ``name`` and then calls
        ``after(span, args, result)`` outside the span's timed interval."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                span = None
            else:
                span = [name, clock(), 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[2] = clock()
                    stack.pop()
            if after is not None:
                after(span, args, result)
            return result

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args)

    # -- patching ------------------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sketchsolve"
                                      or mod_name.startswith("sketchsolve.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def __enter__(self):
        import importlib

        from sketchsolve.expcli.runner import ResultTable

        try:
            for mod_name, attr, name in TARGETS:
                original = getattr(importlib.import_module(mod_name), attr)
                self._patch_everywhere(original, self.wrap(original, name, self._hook(attr)))
            self._patched.append((ResultTable, "write_csv", ResultTable.write_csv))
            ResultTable.write_csv = self.wrap(ResultTable.write_csv, "expcli.io",
                                              self._hook("write_csv"))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    # -- counters filled from arguments and results ----------------------------

    def _hook(self, attr: str):
        from sketchsolve.sketch import SparseSketch

        counts = self.counts

        def draw(span, args, S):
            if isinstance(S, SparseSketch):
                span[0] = "sketch.draw.sparse"
                counts["sketch.draw.numbers"] += 2 * S.k * S.s_drawn  # indices + normals
            else:
                span[0] = "sketch.draw.dense"
                counts["sketch.draw.numbers"] += S.size

        def apply(span, args, result):
            S = args[0]
            counts["sketch.apply.entries"] += (S.nnz if isinstance(S, SparseSketch)
                                               else S.size)

        def solve_psd(span, args, result):
            counts["linalg.solve_psd.fallbacks"] += bool(result[1])

        def solve(span, args, result):
            counts["solver.steps"] += result[1].iterations

        def estimate_rate(span, args, report):
            counts["solver.short_tail_cells"] += bool(report.short_tail)

        def expected_projection(span, args, estimate):
            counts["spectral.trials"] += estimate.trials

        def rsn_solve(span, args, result):
            trace = result[1]
            counts["newton.iterations"] += len(trace.f)
            counts["newton.line_search_failures"] += trace.line_search_failures

        def objective(span, args, obj):
            for cb in _OBJECTIVE_CALLBACKS:
                setattr(obj, cb, self.wrap(getattr(obj, cb), f"newton.objective.{cb}"))

        def file_arg(index):
            def size(span, args, result):
                counts["expcli.io.bytes"] += os.path.getsize(args[index])
            return size

        def returned_file(span, args, path):
            counts["expcli.io.bytes"] += os.path.getsize(path)

        return {
            "draw_sketch": draw,
            "apply_sketch": apply,
            "solve_psd": solve_psd,
            "solve": solve,
            "estimate_rate": estimate_rate,
            "expected_projection": expected_projection,
            "rsn_solve": rsn_solve,
            "logistic_objective": objective,
            "save_matrix_csv": file_arg(0),
            "write_csv": file_arg(1),
            "emit_plot_data": returned_file,
        }.get(attr)

    # -- summary ---------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name total self time and call count."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _parent), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            calls[name] += 1
        return self_s, calls

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics in the units listed in BENCHMARK.json."""
        self_s, calls = self.self_times()
        c = self.counts
        by_parent: Counter = Counter()
        for name, _s, _e, parent in self.spans:
            if parent >= 0:
                by_parent[(self.spans[parent][0], name)] += 1
        rsn = "newton.rsn_solve"
        newton_steps = (by_parent[(rsn, "sketch.draw.dense")]
                        + by_parent[(rsn, "sketch.draw.sparse")])
        line_search_evals = by_parent[(rsn, "newton.objective.value")] - c["newton.iterations"]
        out = {
            "rng.stream.calls": calls["rng.stream"],
            "rng.stream.self_s": self_s["rng.stream"],
            "sketch.draw.dense.calls": calls["sketch.draw.dense"],
            "sketch.draw.dense.self_s": self_s["sketch.draw.dense"],
            "sketch.draw.sparse.calls": calls["sketch.draw.sparse"],
            "sketch.draw.sparse.self_s": self_s["sketch.draw.sparse"],
            "sketch.draw.numbers": c["sketch.draw.numbers"],
            "sketch.apply.calls": calls["sketch.apply"],
            "sketch.apply.self_s": self_s["sketch.apply"],
            "sketch.apply.entries": c["sketch.apply.entries"],
            "sketch.apply_t.calls": calls["sketch.apply_t"],
            "sketch.apply_t.self_s": self_s["sketch.apply_t"],
            "sketch.leverage.self_s": self_s["sketch.leverage"],
            "linalg.solve_psd.calls": calls["linalg.solve_psd"],
            "linalg.solve_psd.self_s": self_s["linalg.solve_psd"],
            "linalg.solve_psd.fallback_frac": _ratio(c["linalg.solve_psd.fallbacks"],
                                                     calls["linalg.solve_psd"]),
            "linalg.orth_rowspace.calls": calls["linalg.orth_rowspace"],
            "linalg.orth_rowspace.self_s": self_s["linalg.orth_rowspace"],
            "matgen.build.self_s": self_s["matgen.build"],
            "solver.runs": calls["solver.solve"],
            "solver.steps": c["solver.steps"],
            "solver.steps_per_run": _ratio(c["solver.steps"], calls["solver.solve"]),
            "solver.solve.self_s": self_s["solver.solve"],
            "solver.project_step.self_s": self_s["solver.project_step"],
            "solver.short_tail_cells": c["solver.short_tail_cells"],
            "spectral.expected_projection.calls": calls["spectral.expected_projection"],
            "spectral.expected_projection.self_s": self_s["spectral.expected_projection"],
            "spectral.surrogate_vs_empirical.self_s":
                self_s["spectral.surrogate_vs_empirical"],
            "spectral.trials": c["spectral.trials"],
            "randsvd.err_monte_carlo.self_s": self_s["randsvd.err_monte_carlo"],
            "randsvd.residual_error.calls": calls["randsvd.residual_error"],
            "randsvd.residual_error.self_s": self_s["randsvd.residual_error"],
            "newton.rsn_solve.self_s": self_s[rsn],
            "newton.rho_certificate.self_s": self_s["newton.rho_certificate"],
            "newton.full_newton.self_s": self_s["newton.full_newton"],
            "newton.steps": newton_steps,
            "newton.objective.self_s": sum(self_s[f"newton.objective.{cb}"]
                                           for cb in _OBJECTIVE_CALLBACKS),
            "newton.line_search.evals_per_step": _ratio(line_search_evals, newton_steps),
            "newton.line_search_failures": c["newton.line_search_failures"],
            "expcli.io.self_s": self_s["expcli.io"],
            "expcli.io.bytes": c["expcli.io.bytes"],
            "expcli.self_s": self_s[ROOT_SPAN],
        }
        for cb in _OBJECTIVE_CALLBACKS:
            out[f"newton.objective.{cb}.calls"] = calls[f"newton.objective.{cb}"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
