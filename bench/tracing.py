"""In-memory spans around the library's public functions.

The tracer replaces public functions at each import site (for example
``aggchoice.cli.aru_distance`` and ``aggchoice.simulation.aru_distance``)
with wrappers that record a span: name, start, end, parent span and
command id.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the durations of its direct children, so the
self times of one command's spans sum to its root span.

Counters are taken at the same boundaries from arguments and results,
after the wrapped call returns.  ``max|Ax-b|`` of each feasible LP
point is computed in `finish_command`, after the command's latency has
been taken, outside every span.

`problems` checks the recorded spans: every span is finite and ends
after it starts, every child lies inside its parent and belongs to the
same command, every self time is non-negative, the self times of a
command sum to its root span, and the root span agrees with the latency
timed outside the tracer.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int


def _count_orders(tracer, args, kwargs, result):
    tracer.counters["model.orders_enumerated"] += len(result)


def _lp_stats(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    rows, cols = a.shape
    tracer.counters["linprog.rows"] += rows
    tracer.counters["linprog.cols"] += cols
    parent = tracer.current_name()
    if parent is not None and parent.startswith("axioms."):
        # The event matrix is the LP matrix minus its all-ones row.
        tracer.counters["axioms.event_matrix_bytes_computed"] += (rows - 1) * cols * 8
    if result.feasible:
        tracer.pending_lps.append((a, b, result.x))
    else:
        tracer.counters["linprog.infeasible_calls"] += 1


def _fw_stats(tracer, args, kwargs, result):
    tracer.counters["geometry.fw_iterations"] += result.iterations
    tracer.counters["geometry.fw_active_vertices"] += len(result.mixture)


def _lmo_stats(tracer, args, kwargs, result):
    space = args[1] if len(args) > 1 else kwargs["space"]
    tracer.counters["geometry.lmo_orders_scanned"] += math.factorial(len(space.members))


def _tuple_count(tracer, args, kwargs, result):
    tracer.counters["rationalize.composition_tuples"] += len(result)


def _witness_residual(tracer, args, kwargs, result):
    tracer.maxima["rationalize.max_residual"] = max(
        tracer.maxima["rationalize.max_residual"], result.residual
    )


def _bytes_read(tracer, args, kwargs, result):
    tracer.counters["serialize.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(tracer, args, kwargs, result):
    tracer.counters["serialize.bytes_written"] += len(result.encode("utf-8"))


#: (module, attribute, span name, counter hook).  Every import site a CLI
#: command reaches is listed, so a call is traced whichever module makes it.
PATCHES = (
    ("aggchoice.axioms", "all_orders", "model.all_orders", _count_orders),
    ("aggchoice.geometry", "all_orders", "model.all_orders", _count_orders),
    ("aggchoice.cli", "forward_evaluate", "model.forward_evaluate", None),
    ("aggchoice.rationalize", "forward_evaluate", "model.forward_evaluate", None),
    ("aggchoice.cli", "check_aru_rational", "axioms.check_aru_rational", None),
    ("aggchoice.cli", "check_ru_rational", "axioms.check_ru_rational", None),
    ("aggchoice.geometry", "check_ru_rational", "axioms.check_ru_rational", None),
    ("aggchoice.cli", "check_limited_monotonicity", "axioms.check_limited_monotonicity", None),
    ("aggchoice.axioms", "check_limited_monotonicity", "axioms.check_limited_monotonicity", None),
    ("aggchoice.rationalize", "check_limited_monotonicity", "axioms.check_limited_monotonicity", None),
    ("aggchoice.cli", "check_partial_ru", "axioms.check_partial_ru", None),
    ("aggchoice.axioms", "check_partial_ru", "axioms.check_partial_ru", None),
    ("aggchoice.rationalize", "check_partial_ru", "axioms.check_partial_ru", None),
    ("aggchoice.axioms", "bm_polynomial", "axioms.bm_polynomial", None),
    ("aggchoice.linprog", "solve_feasibility", "linprog.solve_feasibility", _lp_stats),
    ("aggchoice.cli", "aru_distance", "geometry.aru_distance", _fw_stats),
    ("aggchoice.simulation", "aru_distance", "geometry.aru_distance", _fw_stats),
    ("aggchoice.cli", "approx_caratheodory", "geometry.approx_caratheodory", None),
    ("aggchoice.geometry", "ru_vertex_lmo", "geometry.ru_vertex_lmo", _lmo_stats),
    ("aggchoice.cli", "rationalize", "rationalize.rationalize", _witness_residual),
    ("aggchoice.rationalize", "build_lambda_for_menu", "rationalize.build_lambda_for_menu", _tuple_count),
    ("aggchoice.cli", "reduce_dataset", "simulation.reduce_dataset", None),
    ("aggchoice.simulation", "reduce_dataset", "simulation.reduce_dataset", None),
    ("aggchoice.cli", "fit_aggregated_logit", "simulation.fit_aggregated_logit", None),
    ("aggchoice.simulation", "fit_aggregated_logit", "simulation.fit_aggregated_logit", None),
    ("aggchoice.cli", "sweep", "simulation.sweep", None),
    ("aggchoice.cli", "minmax_bias", "simulation.minmax_bias", None),
    ("aggchoice.serialize", "load", "serialize.load", _bytes_read),
    ("aggchoice.serialize", "to_json", "serialize.to_json", _bytes_written),
    ("aggchoice.cli", "heatmap_svg", "render.heatmap_svg", None),
)

ROOT = "cli.main"

#: Float cancellation allowed in self times and their per-command sums.
SELF_TOL_S = 1e-6

#: A root span lies inside the command's externally timed latency; the
#: gap is the tracer's own entry and exit plus any preemption that lands
#: there.  Allowed: this much plus ROOT_GAP_SHARE of the latency.
ROOT_GAP_S = 0.01
ROOT_GAP_SHARE = 0.01


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: defaultdict = field(default_factory=lambda: defaultdict(float))
    maxima: defaultdict = field(default_factory=lambda: defaultdict(float))
    pending_lps: list = field(default_factory=list)
    latencies: dict = field(default_factory=dict)  # command id -> seconds
    _stack: list[int] = field(default_factory=list)
    _command: int | None = None
    _installed: list = field(default_factory=list)

    def current_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self._command))
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def command(self, command_id: int):
        """Root span of one CLI call."""
        self._command = command_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self._command = None

    def finish_command(self, command_id: int, seconds: float) -> None:
        """Record the command's external latency; compute deferred LP residuals."""
        self.latencies[command_id] = seconds
        for a, b, x in self.pending_lps:
            residual = float(np.abs(a @ x - b).max())
            self.maxima["linprog.max_abs_residual"] = max(
                self.maxima["linprog.max_abs_residual"], residual
            )
        self.pending_lps.clear()

    def wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            if self._command is None:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, hook))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, index-aligned with `spans`."""
        child_total = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_total[span.parent] += span.end - span.start
        return [
            (span.end - span.start) - child_total[i]
            for i, span in enumerate(self.spans)
        ]

    def problems(self) -> list[str]:
        """What is wrong with the recorded spans; empty when they are sound."""
        out = []
        sums: dict[int, float] = defaultdict(float)  # command -> summed self times
        roots: dict[int, float] = {}  # command -> root span duration
        for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
            sums[span.command] += own
            where = f"span {i} ({span.name}, command {span.command})"
            if not (math.isfinite(span.start) and math.isfinite(span.end) and span.end >= span.start):
                out.append(f"{where} runs from {span.start!r} to {span.end!r}")
                continue
            if not (math.isfinite(own) and own >= -SELF_TOL_S):
                out.append(f"{where} has self time {own!r}")
            if span.parent is None:
                roots[span.command] = span.end - span.start
                if span.name != ROOT:
                    out.append(f"{where} has no parent")
                continue
            parent = self.spans[span.parent]
            if parent.command != span.command:
                out.append(f"{where} has a parent in command {parent.command}")
            if not (parent.start <= span.start and span.end <= parent.end):
                out.append(f"{where} is not inside its parent {parent.name}")
        for command, root in roots.items():
            if not abs(sums[command] - root) <= SELF_TOL_S:
                out.append(f"command {command}: self times sum to {sums[command]!r}, root span {root!r}")
            latency = self.latencies.get(command)
            if latency is None:
                out.append(f"command {command}: no external latency")
            elif not 0.0 <= latency - root <= ROOT_GAP_S + ROOT_GAP_SHARE * latency:
                out.append(f"command {command}: root span {root!r} against latency {latency!r}")
        for command in self.latencies.keys() - roots.keys():
            out.append(f"command {command}: timed but has no root span")
        return out

    def layer_totals(self) -> dict[str, float]:
        """Per span name: call count and summed self time."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += own
        return out
