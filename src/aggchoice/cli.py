"""Command-line front end.

Subcommands wire the library to JSON manifests, CSV sweep tables, and
SVG heatmaps.  Exit codes follow one contract everywhere: 0 for a pass
or a completed computation, 1 for a domain-level failure (an axiom
violation, an infeasible construction), 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
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
from .model import ChoiceDomain, all_orders, forward_evaluate, order_events
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


def _write(text: str, output: str | None) -> None:
    """Write text to the output path, or to stdout when there is none."""
    if output:
        try:
            serialize.write_text(text, output)
        except OSError as err:
            raise AggChoiceError(f"cannot write {output}: {err.strerror}") from None
    else:
        sys.stdout.write(text)


def _check_outputs(args) -> None:
    """Refuse an output path that cannot be written before any work."""
    for name in ("output", "output_csv", "output_svg"):
        output = getattr(args, name, None)
        if output:
            try:
                serialize.check_writable(output)
            except OSError as err:
                raise AggChoiceError(f"cannot write {output}: {err.strerror}") from None


def _emit(payload: dict, output: str | None) -> None:
    _write(json.dumps(payload, sort_keys=True, indent=2) + "\n", output)


def _fail(payload: dict) -> int:
    """Print why a command failed on stdout; --output is left untouched."""
    _emit(payload, None)
    return FAIL


def _load(path: str) -> Manifest:
    try:
        return serialize.load(path)
    except FileNotFoundError:
        raise AggChoiceError(f"no such file: {path}") from None
    except OSError as err:
        raise AggChoiceError(f"cannot read {path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise AggChoiceError(f"cannot read {path}: not UTF-8 text") from None


def _load_choice(path: str):
    choice = _load(path).choice
    if choice is None:
        raise AggChoiceError("manifest carries no stochastic choice table")
    return choice


def _encode_orders(weights) -> list:
    """A distribution over orders, as its ranking/weight pairs."""
    return [{"ranking": list(o.ranking), "weight": w} for o, w in weights.items()]


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
        payload["certificate"] = _encode_orders(report.certificate)
    return payload


def _cmd_check(args) -> int:
    rho = _load_choice(args.input)
    space = rho.space
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
    rho = _load_choice(args.input)
    try:
        result = rationalize(rho, rho.space, variant=args.variant)
    except AxiomViolated as err:
        payload = {"error": str(err)}
        if err.report is not None:
            payload["report"] = _encode_report(err.report, rho.space)
        return _fail(payload)
    out = Manifest(
        space=rho.space,
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
        raise AggChoiceError(f"manifest lacks {', '.join(missing)}")
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
    rho = _load_choice(args.input)
    result = aru_distance(rho, rho.space)
    payload = {
        "squared_distance": result.squared_distance,
        "duality_gap": result.duality_gap,
        "iterations": result.iterations,
        "hit_iteration_cap": result.hit_iteration_cap,
        # aru_distance keeps only positive weights.
        "mixture": _encode_orders(result.mixture),
    }
    _emit(payload, args.output)
    return PASS


def _cmd_caratheodory(args) -> int:
    rho = _load_choice(args.input)
    try:
        result = approx_caratheodory(rho, args.k, rho.space)
    except NotRURational as err:
        return _fail({"error": str(err)})
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
        raise AggChoiceError("provide --n and/or --input")
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
            raise AggChoiceError("vertex enumeration is capped at 5 aggregates")
        domain = (
            manifest.choice.domain()
            if manifest.choice is not None
            else ChoiceDomain.full(space)
        )
        cells = domain.cells()
        events = order_events(space.members, cells)
        payload["aru_vertices"] = [
            {
                "ranking": list(order.ranking),
                "table": [
                    {"menu": list(space.sort(menu)), "chosen": a}
                    for (menu, a), picked in zip(cells, picks) if picked
                ],
            }
            for order, picks in zip(all_orders(space.members), events.T.tolist())
        ]
    _emit(payload, args.output)
    return PASS


def _parse_triple(text: str) -> tuple[float, float, float]:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise AggChoiceError("composition triples need three comma-separated numbers")
    # The rule a composition distribution applies to its total.
    if (
        not all(map(math.isfinite, parts))
        or min(parts) < 0
        or abs(math.fsum(parts) - 1.0) > PROB_TOL
    ):
        raise AggChoiceError("composition triple must be a probability vector")
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


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.9g}"
        return str(value)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


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
    # Both texts are built before either file is written.
    csv = _csv_text(header, data)
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
    _write(csv, args.output_csv)
    if args.output_svg:
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


def _finite_float(text: str) -> float:
    """An argparse type: a finite number (no nan or inf)."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("must be a finite number")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggchoice",
        description="Rationality tests and simulations for aggregated choice data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The manifest in, and where the result goes (stdout when absent).
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--input", required=True)
    io.add_argument("--output")

    check = sub.add_parser(
        "check", parents=[io], help="run an axiom check on a dataset"
    )
    check.add_argument("--axiom", choices=("lm", "partial", "ru", "aru"), default="ru")
    check.set_defaults(func=_cmd_check)

    rat = sub.add_parser(
        "rationalize", parents=[io], help="construct a rationalizing model"
    )
    rat.add_argument("--variant", choices=("multi", "outside_option"), default="multi")
    rat.set_defaults(func=_cmd_rationalize)

    ev = sub.add_parser(
        "evaluate", parents=[io], help="forward-evaluate a model manifest"
    )
    ev.set_defaults(func=_cmd_evaluate)

    dist = sub.add_parser("distance", parents=[io], help="distance to the ARU polytope")
    dist.set_defaults(func=_cmd_distance)

    car = sub.add_parser(
        "caratheodory", parents=[io], help="sparse uniform-mixture approximation"
    )
    car.add_argument("--k", type=_int_in(1), required=True)
    car.set_defaults(func=_cmd_caratheodory)

    vert = sub.add_parser("vertices", help="vertex counts and enumeration")
    vert.add_argument("--n", type=_int_in(1, MAX_VERTEX_N))
    vert.add_argument("--input")
    vert.add_argument("--output")
    vert.set_defaults(func=_cmd_vertices)

    sim = sub.add_parser("simulate", help="one bias/distance evaluation")
    sim.add_argument("--ux", type=_finite_float, default=2.0)
    sim.add_argument("--uy", type=_finite_float, default=1.0)
    sim.add_argument("--uz", type=_finite_float, default=3.0)
    sim.add_argument("--uw", type=_finite_float, default=0.0)
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
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except AggChoiceError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
