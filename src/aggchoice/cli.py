"""Command-line front end.

Subcommands wire the library to JSON manifests, CSV sweep tables, and
SVG heatmaps.  Exit codes follow one contract everywhere: 0 for a pass
or a completed computation, 1 for a domain-level failure (an axiom
violation, an infeasible construction), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import astuple, fields
from typing import Sequence

from . import serialize
from .axioms import (
    AxiomReport,
    check_aru_rational,
    check_limited_monotonicity,
    check_partial_ru,
    check_ru_rational,
)
from .errors import AggChoiceError, AxiomViolated, NotRURational
from .geometry import approx_caratheodory, aru_distance, vertex_count_lower_bound
from .model import ChoiceDomain, all_orders, forward_evaluate, order_winners
from .rationalize import rationalize
from .render import heatmap_svg
from .serialize import Manifest
from .simulation import (
    MARKET_MENUS,
    PINNED,
    MinMaxRow,
    minmax_bias,
    simulate_point,
    sweep,
)

# Unused here, but bench/tracing.py patches these names at this import site.
from .simulation import fit_aggregated_logit, reduce_dataset  # noqa: F401
from .tolerances import PROB_TOL

PASS, FAIL, USAGE = 0, 1, 2

#: Largest `vertices --n` whose exact count, about 2^(2^n), still converts
#: to a decimal string under Python's default limit of 4300 digits.
MAX_VERTEX_N = 13


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write(text: str, output: str | None) -> None:
    """Write text to the output path, or to stdout when there is none."""
    if output:
        serialize.write_text(text, output)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, output: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)


def _load(path: str | None) -> Manifest:
    if not path:
        raise CliError("--input is required for this command", USAGE)
    try:
        return serialize.load(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}", USAGE) from None


def _need_choice(manifest: Manifest):
    if manifest.choice is None:
        raise CliError("manifest carries no stochastic choice table", USAGE)
    return manifest.choice


def _encode_report(report: AxiomReport, space) -> dict:
    def encode_subject(subject) -> list:
        out = []
        for part in subject:
            if isinstance(part, frozenset):
                out.append(list(space.sort(part)))
            else:
                out.append(part)
        return out

    payload: dict = {
        "passed": report.passed,
        "method": report.method,
        "violations": [
            {
                "kind": v.kind,
                "subject": encode_subject(v.subject),
                "lhs": v.lhs,
                "rhs": v.rhs,
                "slack": v.slack,
            }
            for v in report.violations
        ],
    }
    if report.certificate is not None:
        payload["certificate"] = [
            {"ranking": list(order.ranking), "weight": w}
            for order, w in report.certificate.items()
        ]
    return payload


def _cmd_check(args) -> int:
    manifest = _load(args.input)
    rho = _need_choice(manifest)
    space = manifest.space
    checks = {
        "lm": lambda: check_limited_monotonicity(rho, space),
        "partial": lambda: check_partial_ru(rho, space),
        "ru": lambda: check_ru_rational(rho, space),
        "aru": lambda: check_aru_rational(rho, space),
    }
    report = checks[args.axiom]()
    payload = {"axiom": args.axiom, **_encode_report(report, space)}
    _emit(payload, args.output)
    return PASS if report.passed else FAIL


def _cmd_rationalize(args) -> int:
    manifest = _load(args.input)
    rho = _need_choice(manifest)
    try:
        result = rationalize(rho, manifest.space, variant=args.variant)
    except AxiomViolated as err:
        payload = {"error": str(err)}
        if err.report is not None:
            payload["report"] = _encode_report(err.report, manifest.space)
        _emit(payload, args.output)
        return FAIL
    out = Manifest(
        space=manifest.space,
        correspondence=result.correspondence,
        preferences=result.prefs,
        composition=result.composition,
        metadata={
            **result.metadata,
            "verification_residual": result.residual,
        },
    )
    _write(serialize.to_json(out), args.output)
    return PASS


def _cmd_evaluate(args) -> int:
    manifest = _load(args.input)
    missing = [
        name
        for name, value in (
            ("preference_distribution", manifest.preferences),
            ("correspondence", manifest.correspondence),
            ("composition_distribution", manifest.composition),
        )
        if value is None
    ]
    if missing:
        raise CliError(f"manifest lacks {', '.join(missing)}", USAGE)
    space = manifest.space
    if manifest.choice is not None:
        domain = manifest.choice.domain()
    else:
        # A model fitted to a partial domain has compositions only there.
        composed = manifest.composition.per_menu
        domain = ChoiceDomain(
            space,
            tuple(
                m
                for m in ChoiceDomain.full(space).menus
                if m in composed or not m & space.non_atomic_set
            ),
        )
    rho = forward_evaluate(
        manifest.preferences, manifest.correspondence, manifest.composition, domain
    )
    out = Manifest(space=space, choice=rho, metadata={"evaluated": True})
    _write(serialize.to_json(out), args.output)
    return PASS


def _cmd_distance(args) -> int:
    manifest = _load(args.input)
    rho = _need_choice(manifest)
    result = aru_distance(rho, manifest.space)
    payload = {
        "squared_distance": result.squared_distance,
        "duality_gap": result.duality_gap,
        "iterations": result.iterations,
        "hit_iteration_cap": result.hit_iteration_cap,
        "mixture": [
            {"ranking": list(order.ranking), "weight": w}
            for order, w in result.mixture.items()
            if w > 0.0
        ],
    }
    _emit(payload, args.output)
    return PASS


def _cmd_caratheodory(args) -> int:
    manifest = _load(args.input)
    rho = _need_choice(manifest)
    try:
        result = approx_caratheodory(rho, args.k, manifest.space)
    except NotRURational as err:
        _emit({"error": str(err)}, args.output)
        return FAIL
    payload = {
        "k": args.k,
        "achieved": result.achieved,
        "bound": result.bound,
        "fw_achieved": result.fw_achieved,
        "certifies_ru_n": result.certifies_ru_n,
        "vertices": [
            {
                "ranking": list(order.ranking),
                "deviations": {
                    a: [sorted(menu) for menu in sorted(menus, key=sorted)]
                    for a, menus in family.per_aggregate.items()
                },
            }
            for order, family in result.vertices
        ],
    }
    _emit(payload, args.output)
    return PASS


def _cmd_vertices(args) -> int:
    if args.n is None and not args.input:
        raise CliError("provide --n and/or --input", USAGE)
    payload: dict = {}
    if args.n is not None:
        count, ratio_bound = vertex_count_lower_bound(args.n)
        payload["n"] = args.n
        payload["vertex_count_lower_bound"] = str(count)
        payload["ratio_lower_bound"] = str(ratio_bound)
        threshold = 2 ** (2 ** (args.n - 1))
        payload["ratio_exceeds_2^2^(n-1)"] = ratio_bound >= threshold
    if args.input:
        manifest = _load(args.input)
        space = manifest.space
        if len(space.members) > 5:
            raise CliError("vertex enumeration is capped at 5 aggregates", USAGE)
        domain = (
            manifest.choice.domain()
            if manifest.choice is not None
            else ChoiceDomain.full(space)
        )
        winners = order_winners(space.members, domain.menus)
        payload["aru_vertices"] = [
            {
                "ranking": list(order.ranking),
                "table": [
                    {"menu": list(space.sort(menu)), "chosen": space.members[k]}
                    for menu, k in zip(domain.menus, picks)
                ],
            }
            for order, picks in zip(all_orders(space.members), winners)
        ]
    _emit(payload, args.output)
    return PASS


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise CliError("composition triples need three comma-separated numbers", USAGE)
    # The rule a composition distribution applies to its total.
    if (
        not all(map(math.isfinite, parts))
        or min(parts) < 0
        or abs(math.fsum(parts) - 1.0) > PROB_TOL
    ):
        raise CliError("composition triple must be a probability vector", USAGE)
    return tuple(parts)  # type: ignore[return-value]


def _cmd_simulate(args) -> int:
    utilities = {"x": args.ux, "y": args.uy, "z": args.uz, "w": args.uw}
    triples = {
        frozenset({"x", "a0"}): _parse_triple(args.lambda_x),
        frozenset({"y", "a0"}): _parse_triple(args.lambda_y),
        frozenset({"x", "y", "a0"}): _parse_triple(args.lambda_xy),
    }
    point = simulate_point(utilities, triples, "both")
    rho = point.reduced
    space = rho.space
    payload = {
        "utilities": utilities,
        "estimates": {a: float(v) for a, v in point.estimates.items()},
        "estimation": {
            "menu_weighting": "equal-per-menu",
            "normalized": PINNED,
            "menus": [sorted(m) for m in MARKET_MENUS],
        },
        "bias": point.bias,
        "squared_distance": point.squared_distance,
        "reduced": [
            {
                "menu": list(space.sort(menu)),
                "probs": {a: rho.prob(menu, a) for a in space.sort(menu)},
            }
            for menu in rho.menus
        ],
    }
    _emit(payload, args.output)
    return PASS


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.9g}"
        return str(value)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    _write("\n".join(lines) + "\n", path)


#: CSV columns written for each choice of --measures.
MEASURED_COLUMNS = {
    "bias": ("bias",),
    "distance": ("squared_distance",),
    "both": ("bias", "squared_distance"),
}


def _cmd_sweep(args) -> int:
    # The lambda grid's menu-independent cell is outlined on its heatmap.
    highlight = (0.8, 0.1) if args.mode == "lambda" else None
    if args.mode == "minmax":
        rows = minmax_bias(outer_step=args.grid, inner_step=args.resolution)
        header = [f.name for f in fields(MinMaxRow)]
        data = [astuple(r) for r in rows]
        title = "bias at the menu-independent point"
    else:
        step = args.grid if args.mode == "lambda" else args.resolution
        rows = sweep(args.mode, step, args.measures)
        measured = MEASURED_COLUMNS[args.measures]
        header = [name for name, _ in rows[0].point] + list(measured)
        data = [
            tuple(v for _, v in r.point) + tuple(getattr(r, m) for m in measured)
            for r in rows
        ]
        title = f"{header[-1]} ({args.mode} sweep)"
    _write_csv(args.output_csv, header, data)
    if args.output_svg:
        # The heatmap draws the last column over the first two.
        svg = heatmap_svg(
            [row[:2] for row in data],
            [row[-1] for row in data],
            header[0],
            header[1],
            title,
            highlight=highlight,
            signed=header[-1] != "squared_distance",
        )
        _write(svg, args.output_svg)
    return PASS


def _int_in(low: int, high: int | None = None):
    """An argparse type: an integer from `low` to `high` (no upper bound if None)."""
    bounds = f"from {low} to {high}" if high is not None else f"of at least {low}"

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low and (high is None or value <= high):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be an integer {bounds}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggchoice",
        description="Rationality tests and simulations for aggregated choice data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run an axiom check on a dataset")
    check.add_argument("--input", required=True)
    check.add_argument("--output")
    check.add_argument(
        "--axiom", choices=("lm", "partial", "ru", "aru"), default="ru"
    )
    check.set_defaults(func=_cmd_check)

    rat = sub.add_parser("rationalize", help="construct a rationalizing model")
    rat.add_argument("--input", required=True)
    rat.add_argument("--output")
    rat.add_argument(
        "--variant", choices=("multi", "outside_option"), default="multi"
    )
    rat.set_defaults(func=_cmd_rationalize)

    ev = sub.add_parser("evaluate", help="forward-evaluate a model manifest")
    ev.add_argument("--input", required=True)
    ev.add_argument("--output")
    ev.set_defaults(func=_cmd_evaluate)

    dist = sub.add_parser("distance", help="distance to the ARU polytope")
    dist.add_argument("--input", required=True)
    dist.add_argument("--output")
    dist.set_defaults(func=_cmd_distance)

    car = sub.add_parser(
        "caratheodory", help="sparse uniform-mixture approximation"
    )
    car.add_argument("--input", required=True)
    car.add_argument("--output")
    car.add_argument("--k", type=_int_in(1), required=True)
    car.set_defaults(func=_cmd_caratheodory)

    vert = sub.add_parser("vertices", help="vertex counts and enumeration")
    vert.add_argument("--n", type=_int_in(1, MAX_VERTEX_N))
    vert.add_argument("--input")
    vert.add_argument("--output")
    vert.set_defaults(func=_cmd_vertices)

    sim = sub.add_parser("simulate", help="one bias/distance evaluation")
    sim.add_argument("--ux", type=float, default=2.0)
    sim.add_argument("--uy", type=float, default=1.0)
    sim.add_argument("--uz", type=float, default=3.0)
    sim.add_argument("--uw", type=float, default=0.0)
    sim.add_argument("--lambda-x", default="0.8,0.1,0.1")
    sim.add_argument("--lambda-y", default="0.8,0.1,0.1")
    sim.add_argument("--lambda-xy", default="0.8,0.1,0.1")
    sim.add_argument("--output")
    sim.set_defaults(func=_cmd_simulate)

    sw = sub.add_parser("sweep", help="grid sweeps behind the heatmaps")
    sw.add_argument("--mode", choices=("lambda", "utility", "minmax"), default="lambda")
    sw.add_argument("--grid", type=float, default=0.1, help="outer grid step")
    sw.add_argument(
        "--resolution", type=float, default=0.1, help="inner or utility step"
    )
    sw.add_argument("--measures", choices=("bias", "distance", "both"), default="both")
    sw.add_argument("--output-csv", required=True)
    sw.add_argument("--output-svg")
    sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except AggChoiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
