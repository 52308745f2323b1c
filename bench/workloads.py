"""Command batches of the three workloads and the checks on their outputs.

A workload is a fixed list of groups.  A group is one generated
instance (or none, for the sweeps) and the CLI commands run on it, in
order; checks see the outputs of earlier commands of the same group, so
the routes can be held against each other.  Every command is one
in-process ``aggchoice.cli.main([...])`` call.

Why each workload (the layers it loads and the ones it bypasses):

* ``lp-rational``: ``check --axiom aru`` on ARU-rational order mixtures
  at 5 and 6 ids, and ``rationalize`` on RU-rational 7-id data with 6
  atomics (an LP over 720 atomic orders).  The phase-1 simplex does most
  of the work; the event-matrix build is small.  Two small groups ride
  along: ``check --axiom ru`` and ``rationalize`` on a domain-closed
  partial domain at 8 ids (the RU check takes the LP route, over 120
  atomic orders), and the ``check --axiom ru``, ``rationalize``,
  ``evaluate`` round trip on the nesting counterexample.
* ``polytope-7``: RU- but not ARU-rational menu-effect-vertex mixtures at
  7 ids under ``check --axiom aru`` (an infeasible LP), ``distance`` and
  ``caratheodory --k 2``.  The per-order Python loops over 5040 orders
  (event matrix, vertex matrix, RU vertex oracle) do most of the work.
* ``sweep``: ``sweep --mode lambda``, ``--mode utility`` and
  ``--mode minmax``, each writing CSV and SVG.  Hundreds of 3-id
  problems (Newton, a 6-vertex Frank-Wolfe, object construction) and
  one large numpy reduction: the case that bypasses order enumeration
  and the 720+-column LPs.  It has no seeded input.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

from aggchoice import serialize
from aggchoice.axioms import LP_TOL
from aggchoice.model import (
    AggregateSpace,
    LinearOrder,
    PreferenceDistribution,
    StochasticChoice,
    aru_evaluate,
    forward_evaluate,
)
from aggchoice.rationalize import VERIFY_TOL

import instances as gen

WORKLOADS = ("lp-rational", "polytope-7", "sweep")

#: A squared distance at or below this counts as "inside the ARU polytope".
#: Frank-Wolfe stops at duality gap 1e-10, which bounds the distance of an
#: ARU-rational table; forced non-ARU instances sit orders of magnitude above.
ZERO_DISTANCE = 1e-8

#: Grid sizes of the sweep commands and the rows each must write.
LAMBDA_GRID, UTILITY_STEP, MINMAX_GRID, MINMAX_INNER = "0.1", "0.5", "0.1", "0.01"
LAMBDA_ROWS = 66  # (10 + 1)(10 + 2) / 2 simplex points at step 0.1
UTILITY_ROWS = 21 * 21  # u_z, u_w in [-5, 5] at step 0.5
MINMAX_ROWS = 66


@dataclass
class Outcome:
    """What one CLI call returned, and how long it took."""

    code: int | None
    seconds: float
    error: str = ""


#: A check gets the command's outcome and the group's shared context and
#: returns the problems it found (empty when the output is correct).
Check = Callable[[Outcome, dict], list]


@dataclass(frozen=True)
class Step:
    kind: str
    argv: tuple[str, ...]
    check: Check
    points: int = 0  # grid points evaluated, for sweep throughput


@dataclass
class Group:
    name: str
    steps: list[Step]
    context: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


ARU_CHECK = ("check-aru",)
POLYTOPE = ("check-aru", "distance", "caratheodory")
CONSTRUCT = ("check-ru", "rationalize")
ROUND_TRIP = CONSTRUCT + ("evaluate",)


def generate(workload: str, seed: int) -> list[tuple[gen.Instance, tuple[str, ...]]]:
    """The workload's instances for one seed, each with its commands."""
    space = gen.make_space
    if workload == "lp-rational":
        partial = gen.closed_partial_domain(space(5, 3), seed, 30)
        return (
            [(gen.aru_order_mixture(f"aru6-{k}", space(5, 1), seed, k), ARU_CHECK) for k in range(3)]
            + [(gen.aru_order_mixture(f"aru5-{k}", space(4, 1), seed, 10 + k), ARU_CHECK) for k in range(2)]
            + [(gen.vertex_mixture("ru7", space(6, 1), seed, 20, None), ("rationalize",))]
            + [(gen.vertex_mixture("ru8-partial", space(5, 3), seed, 31, 8, domain=partial), CONSTRUCT)]
            + [(gen.nesting_counterexample("nesting6", 5), ROUND_TRIP)]
        )
    if workload == "polytope-7":
        return [(gen.vertex_mixture("poly7", space(5, 2), seed, 0, 8, force_non_aru=True), POLYTOPE)]
    if workload == "sweep":
        return []
    raise ValueError(f"unknown workload {workload!r}")


def write_manifests(instances: list[gen.Instance], workdir: str) -> dict[str, str]:
    paths = {}
    for inst in instances:
        path = os.path.join(workdir, f"{inst.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inst.manifest_text())
        paths[inst.name] = path
    return paths


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _prefs(entries: list) -> PreferenceDistribution:
    return PreferenceDistribution(
        {LinearOrder(tuple(e["ranking"])): e["weight"] for e in entries}
    )


def _replay_gap(certificate: list, rho: StochasticChoice, atomic_only: bool) -> float:
    """Largest cell gap between the certificate's RUM table and the data."""
    space = rho.space
    if atomic_only:
        sub_space = AggregateSpace(space.atomic, ())
        menus = [m for m in rho.menus if m <= space.atomic_set]
        rho = StochasticChoice(sub_space, {m: rho.row(m) for m in menus})
    replay = aru_evaluate(_prefs(certificate), rho.domain())
    return replay.max_cell_difference(rho)


def _code_problem(outcome: Outcome, allowed: tuple[int, ...]) -> list:
    if outcome.code not in allowed:
        return [f"exit code {outcome.code}, expected one of {allowed}: {outcome.error}"]
    return []


def check_verdict(inst: gen.Instance, axiom: str, out: str) -> Check:
    """Exit code and payload agree with the verdict known by construction;
    an LP certificate replays through `aru_evaluate` within LP_TOL."""
    expected = inst.aru_rational if axiom == "aru" else True

    def check(outcome: Outcome, ctx: dict) -> list:
        problems = _code_problem(outcome, (0, 1))
        if problems:
            return problems
        payload = _read_json(out)
        passed = outcome.code == 0
        ctx[axiom] = passed
        if payload.get("passed") is not passed:
            problems.append("payload verdict disagrees with the exit code")
        if expected is not None and passed is not expected:
            problems.append(f"{axiom} verdict {passed}, expected {expected}")
        if passed and payload.get("method") == "lp":
            cert = payload.get("certificate")
            if not cert:
                problems.append("LP pass without a certificate")
            else:
                gap = _replay_gap(cert, inst.rho, atomic_only=axiom != "aru")
                if not gap <= LP_TOL:
                    problems.append(f"certificate misses the data by {gap!r}")
        return problems

    return check


def check_distance(inst: gen.Instance, out: str) -> Check:
    """Squared distance is about 0 exactly when the ARU check passed."""

    def check(outcome: Outcome, ctx: dict) -> list:
        problems = _code_problem(outcome, (0,))
        if problems:
            return problems
        payload = _read_json(out)
        sq = payload["squared_distance"]
        if payload["hit_iteration_cap"]:
            problems.append("Frank-Wolfe hit its iteration cap")
        if not (math.isfinite(sq) and sq >= 0.0):
            problems.append(f"squared distance {sq!r}")
        verdict = ctx.get("aru", inst.aru_rational)
        if verdict is not None and (sq <= ZERO_DISTANCE) is not verdict:
            problems.append(f"squared distance {sq!r} disagrees with ARU verdict {verdict}")
        total = math.fsum(e["weight"] for e in payload["mixture"])
        if abs(total - 1.0) > 1e-9:
            problems.append(f"mixture weights sum to {total!r}")
        return problems

    return check


def check_caratheodory(k: int, out: str) -> Check:
    def check(outcome: Outcome, ctx: dict) -> list:
        problems = _code_problem(outcome, (0,))
        if problems:
            return problems
        payload = _read_json(out)
        if not payload["achieved"] <= payload["bound"]:
            problems.append(f"achieved {payload['achieved']!r} above bound {payload['bound']!r}")
        if len(payload["vertices"]) != k:
            problems.append(f"{len(payload['vertices'])} vertices, expected {k}")
        return problems

    return check


def check_rationalize(inst: gen.Instance, model: str) -> Check:
    """Succeeds exactly when the RU check passed, and the written model
    forward-evaluates to the data within VERIFY_TOL."""

    def check(outcome: Outcome, ctx: dict) -> list:
        expected = ctx.get("ru", True)
        problems = _code_problem(outcome, (0,) if expected else (1,))
        if problems or not expected:
            return problems
        manifest = serialize.load(model)
        residual = manifest.metadata.get("verification_residual")
        if not (isinstance(residual, float) and residual <= VERIFY_TOL):
            problems.append(f"verification residual {residual!r}")
        produced = forward_evaluate(
            manifest.preferences,
            manifest.correspondence,
            manifest.composition,
            inst.rho.domain(),
        )
        gap = produced.max_cell_difference(inst.rho)
        if not gap <= VERIFY_TOL:
            problems.append(f"model misses the data by {gap!r}")
        return problems

    return check


def check_evaluate(inst: gen.Instance, out: str) -> Check:
    def check(outcome: Outcome, ctx: dict) -> list:
        problems = _code_problem(outcome, (0,))
        if problems:
            return problems
        gap = serialize.load(out).choice.max_cell_difference(inst.rho)
        if not gap <= VERIFY_TOL:
            problems.append(f"round trip misses the data by {gap!r}")
        return problems

    return check


def check_table(csv_path: str, svg_path: str, columns: int, rows: int) -> Check:
    """Row count and shape of a sweep's CSV and SVG; every value finite."""

    def check(outcome: Outcome, ctx: dict) -> list:
        problems = _code_problem(outcome, (0,))
        if problems:
            return problems
        with open(csv_path, encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        body = table[1:]
        if len(body) != rows:
            problems.append(f"{len(body)} CSV rows, expected {rows}")
        for line in body:
            values = [float(v) for v in line]
            if len(values) != columns or not all(map(math.isfinite, values)):
                problems.append(f"bad CSV row {line}")
                break
        with open(svg_path, encoding="utf-8") as fh:
            svg = fh.read()
        cells = svg.count("<title>(")
        if not svg.startswith("<svg") or not svg.rstrip().endswith("</svg>") or cells != rows:
            problems.append(f"SVG has {cells} cells, expected {rows}")
        return problems

    return check


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def _instance_steps(inst: gen.Instance, recipe: tuple[str, ...], src: str, out) -> list[Step]:
    steps = []
    model = out(inst.name, "model.json")
    for command in recipe:
        if command in ("check-aru", "check-ru"):
            axiom = command.removeprefix("check-")
            path = out(inst.name, f"{axiom}.json")
            argv = ("check", "--axiom", axiom, "--input", src, "--output", path)
            steps.append(Step("check", argv, check_verdict(inst, axiom, path)))
        elif command == "distance":
            path = out(inst.name, "distance.json")
            argv = ("distance", "--input", src, "--output", path)
            steps.append(Step("distance", argv, check_distance(inst, path)))
        elif command == "caratheodory":
            path = out(inst.name, "caratheodory.json")
            argv = ("caratheodory", "--k", "2", "--input", src, "--output", path)
            steps.append(Step("caratheodory", argv, check_caratheodory(2, path)))
        elif command == "rationalize":
            argv = ("rationalize", "--input", src, "--output", model)
            steps.append(Step("rationalize", argv, check_rationalize(inst, model)))
        elif command == "evaluate":
            path = out(inst.name, "evaluated.json")
            argv = ("evaluate", "--input", model, "--output", path)
            steps.append(Step("evaluate", argv, check_evaluate(inst, path)))
        else:
            raise ValueError(f"unknown command {command!r}")
    return steps


def _sweep_steps(out) -> list[Step]:
    steps = []
    for mode, grid_args, columns, rows in (
        ("lambda", ("--grid", LAMBDA_GRID), 5, LAMBDA_ROWS),
        ("utility", ("--resolution", UTILITY_STEP), 4, UTILITY_ROWS),
        ("minmax", ("--grid", MINMAX_GRID, "--resolution", MINMAX_INNER), 6, MINMAX_ROWS),
    ):
        csv_path, svg_path = out(mode, "csv"), out(mode, "svg")
        argv = ("sweep", "--mode", mode, *grid_args, "--output-csv", csv_path, "--output-svg", svg_path)
        kind, points = ("minmax", 0) if mode == "minmax" else ("sweep", rows)
        steps.append(Step(kind, argv, check_table(csv_path, svg_path, columns, rows), points))
    return steps


def plan(workload: str, generated: list, paths: dict[str, str], workdir: str) -> list[Group]:
    """The command groups of one batch."""

    def out(name: str, suffix: str) -> str:
        return os.path.join(workdir, f"{name}.{suffix}")

    groups = [
        Group(inst.name, _instance_steps(inst, recipe, paths[inst.name], out))
        for inst, recipe in generated
    ]
    if workload == "sweep":
        groups.append(Group("sweeps", _sweep_steps(out)))
    return groups
