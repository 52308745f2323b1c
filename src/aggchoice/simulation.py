"""Misspecification-bias experiments for aggregated logit estimation.

The data generating process is a logit model over four underlying
alternatives x, y, z, w; the analyst observes three markets over the
aggregates {x, a0}, {y, a0}, {x, y, a0}, where the outside aggregate a0
stands for z, w, or both, with market-specific frequencies.  Fitting an
aggregated logit (outside utility pinned to zero) to the reduced data
and comparing the estimated utility gap between x and y to the true gap
quantifies the cost of wrongly imposing an aggregate-level random
utility model; the squared Euclidean distance to the ARU polytope
measures the same misspecification geometrically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import MissingUtility, NoConvergence, NotIdentified
from .geometry import aru_distance
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    Menu,
    StochasticChoice,
)
from .tolerances import ASCENT_SLACK, GRADIENT_TOL, grid_steps

UtilityMap = Mapping[str, float]

MAX_NEWTON_ITERATIONS = 200
MAX_STEP_HALVINGS = 40


def logit_choice(utilities: UtilityMap, menu: Iterable[str]) -> dict[str, float]:
    """Softmax choice probabilities over the menu."""
    items = list(menu)
    try:
        values = np.array([utilities[i] for i in items])
    except KeyError as err:
        raise MissingUtility(f"no utility for {err.args[0]!r}") from None
    values = values - values.max()
    weights = np.exp(values)
    weights /= weights.sum()
    return {i: float(p) for i, p in zip(items, weights)}


def reduce_dataset(
    utilities: UtilityMap,
    correspondence: AggregationCorrespondence,
    composition: CompositionDistribution,
    menus: Iterable[Menu],
) -> StochasticChoice:
    """Observable aggregate-level data implied by a logit ground process.

    Equivalent to forward-evaluating the logit preference distribution,
    but computed directly from the closed form: per composition tuple,
    the realized set's softmax mass is summed within each aggregate.
    """
    space = correspondence.space
    table: dict[Menu, dict[str, float]] = {}
    for menu in menus:
        menu = frozenset(menu)
        atoms = [a for a in space.sort(menu) if a in space.atomic_set]
        extras = menu & space.non_atomic_set
        row = {a: 0.0 for a in menu}
        if extras:
            tuples = composition.for_menu(menu)
        else:
            tuples = {CompositionTuple(()): 1.0}
        for t, w in tuples.items():
            realized = [correspondence.sole(a) for a in atoms]
            owner = {correspondence.sole(a): a for a in atoms}
            for a, s in t.parts:
                for x in sorted(s):
                    realized.append(x)
                    owner[x] = a
            probs = logit_choice(utilities, realized)
            for x, p in probs.items():
                row[owner[x]] += w * p
        table[menu] = row
    return StochasticChoice(space, table)


def _check_identified(rho: StochasticChoice, pinned: str) -> list[str]:
    aggregates: set[str] = set()
    for menu in rho.menus:
        aggregates |= menu
    if pinned not in aggregates:
        raise NotIdentified(f"pinned aggregate {pinned!r} appears in no menu")
    reached = {pinned}
    frontier = [pinned]
    adjacency: dict[str, set[str]] = {a: set() for a in aggregates}
    for menu in rho.menus:
        for a in menu:
            adjacency[a] |= menu - {a}
    while frontier:
        nxt = adjacency[frontier.pop()] - reached
        reached |= nxt
        frontier.extend(nxt)
    if reached != aggregates:
        missing = sorted(aggregates - reached)
        raise NotIdentified(f"aggregates {missing} share no menu path to {pinned!r}")
    return sorted(aggregates - {pinned})


def _gradient_and_hessian(
    rho: StochasticChoice, values: dict[str, float]
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Gradient and Hessian of the log likelihood over the sorted free params."""
    params = sorted(values)
    index = {a: i for i, a in enumerate(params)}
    grad = {a: 0.0 for a in params}
    hess = np.zeros((len(params), len(params)))
    for menu in rho.menus:
        items = sorted(menu)
        u = np.array([values.get(a, 0.0) for a in items])
        u = u - u.max()
        p = np.exp(u)
        p /= p.sum()
        for a, pa in zip(items, p):
            if a in index:
                grad[a] += rho.prob(menu, a) - pa
        free = [i for i, a in enumerate(items) if a in index]
        for i in free:
            for j in free:
                gi, gj = index[items[i]], index[items[j]]
                hess[gi, gj] -= (1.0 if i == j else 0.0) * p[i] - p[i] * p[j]
    return np.array([grad[a] for a in params]), hess, params


def fit_aggregated_logit(
    rho: StochasticChoice, normalize: str = "a0"
) -> dict[str, float]:
    """Maximum-likelihood aggregated logit with one utility pinned to 0.

    Maximizes the equally-menu-weighted log likelihood by damped Newton
    (concave objective; step halving up to 40 times per iteration).
    Returns the utility map including the pinned aggregate at exactly 0.
    Raises `NotIdentified` for a disconnected menu graph and
    `NoConvergence` if 200 iterations do not reach gradient norm
    GRADIENT_TOL.
    """
    free = _check_identified(rho, normalize)
    values = {a: 0.0 for a in free}
    if not free:
        return {normalize: 0.0}

    def objective(vals: dict[str, float]) -> float:
        ll = 0.0
        for menu in rho.menus:
            items = sorted(menu)
            u = np.array([vals.get(a, 0.0) for a in items])
            u = u - u.max()
            logits = u - math.log(np.exp(u).sum())
            for a, lp in zip(items, logits):
                share = rho.prob(menu, a)
                if share > 0.0:
                    ll += share * lp
        return ll

    current = objective(values)
    for _ in range(MAX_NEWTON_ITERATIONS):
        grad_vec, hess, params = _gradient_and_hessian(rho, values)
        if np.abs(grad_vec).max() <= GRADIENT_TOL:
            out = {a: values[a] for a in free}
            out[normalize] = 0.0
            return out
        try:
            step = np.linalg.solve(-hess, grad_vec)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(-hess, grad_vec, rcond=None)[0]
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS):
            trial = {a: values[a] + scale * s for a, s in zip(params, step)}
            improved = objective(trial)
            if improved >= current - ASCENT_SLACK:
                values, current = trial, improved
                break
            scale *= 0.5
        else:
            raise NoConvergence("step halving failed to improve the likelihood")
    raise NoConvergence("Newton hit the iteration cap before the gradient tolerance")


def bias(
    estimated: UtilityMap,
    true_utilities: UtilityMap,
    first: str = "x",
    second: str = "y",
) -> float:
    """Distortion of the estimated utility gap between two aggregates."""
    for m, who in ((estimated, "estimated"), (true_utilities, "true")):
        for key in (first, second):
            if key not in m:
                raise MissingUtility(f"{who} utilities lack {key!r}")
    return (estimated[first] - estimated[second]) - (
        true_utilities[first] - true_utilities[second]
    )


# ---------------------------------------------------------------------------
# The three-market world of the experiments
# ---------------------------------------------------------------------------

SUBSET_ORDER = ("z", "w", "zw")  # coordinate convention for composition triples

DEFAULT_UTILITIES: dict[str, float] = {"x": 2.0, "y": 1.0, "z": 3.0, "w": 0.0}

BENCHMARK_TRIPLE = (0.8, 0.1, 0.1)

#: Menu-dependent compositions of the utility sweep: the grand and x
#: markets at the benchmark triple, the y market mostly realizing w.
UTILITY_SWEEP_TRIPLES: dict[Menu, tuple[float, float, float]] = {
    frozenset({"x", "y", "a0"}): BENCHMARK_TRIPLE,
    frozenset({"x", "a0"}): BENCHMARK_TRIPLE,
    frozenset({"y", "a0"}): (0.1, 0.8, 0.1),
}


def make_world() -> tuple[AggregateSpace, AggregationCorrespondence, ChoiceDomain]:
    """Aggregates {x, y, a0} with the outside aggregate covering {z, w}."""
    space = AggregateSpace(("x", "y"), ("a0",))
    correspondence = AggregationCorrespondence.identity_atomic(
        space, {"a0": ("z", "w")}
    )
    return space, correspondence, ChoiceDomain.full(space)


MARKET_MENUS: tuple[Menu, ...] = (
    frozenset({"x", "a0"}),
    frozenset({"y", "a0"}),
    frozenset({"x", "y", "a0"}),
)


def triple_to_tuples(triple: Sequence[float]) -> dict[CompositionTuple, float]:
    """(z, w, zw) probabilities into composition-tuple weights."""
    z, w, zw = triple
    parts = {
        CompositionTuple.of({"a0": {"z"}}): z,
        CompositionTuple.of({"a0": {"w"}}): w,
        CompositionTuple.of({"a0": {"z", "w"}}): zw,
    }
    return {t: p for t, p in parts.items() if p > 0.0}


def composition_from_triples(
    triples: Mapping[Menu, Sequence[float]], domain: ChoiceDomain
) -> CompositionDistribution:
    """Per-menu triples for the outside-aggregate menus of the domain.

    Menus containing a0 but missing from `triples` reuse the full-menu
    triple (markets outside the three observed ones share its mix).
    """
    fallback = triples.get(frozenset({"x", "y", "a0"}))
    per_menu = {}
    for menu in domain.menus:
        if "a0" not in menu:
            continue
        triple = triples.get(frozenset(menu), fallback)
        if triple is None:
            raise KeyError(f"no composition triple for menu {sorted(menu)}")
        per_menu[frozenset(menu)] = triple_to_tuples(triple)
    return CompositionDistribution(per_menu)


def simplex_grid(step: float) -> list[tuple[float, float, float]]:
    """(z, w, zw) triples with z and w on a step grid, zw the residual."""
    steps = grid_steps(step, "step")
    out = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            z = i / steps
            w = j / steps
            out.append((z, w, 1.0 - z - w))
    return out


#: The market whose composition the lambda sweep varies, and the
#: compositions of the other two markets there.
LAMBDA_SWEEP_MENU: Menu = frozenset({"x", "a0"})
LAMBDA_SWEEP_TRIPLES: dict[Menu, tuple[float, float, float]] = {
    frozenset({"y", "a0"}): BENCHMARK_TRIPLE,
    frozenset({"x", "y", "a0"}): BENCHMARK_TRIPLE,
}

#: The range the utility sweep gives u(z) and u(w).
UTILITY_LOW, UTILITY_HIGH = -5.0, 5.0


@dataclass(frozen=True)
class SimulatedPoint:
    """The reduced data of one simulated world and what was measured on it.

    `estimates` and `bias` come from the three-market aggregated-logit
    fit, `squared_distance` from the ARU projection of all menus; each is
    None when its measure was not asked for.
    """

    reduced: StochasticChoice
    estimates: dict[str, float] | None
    bias: float | None
    squared_distance: float | None


def simulate_point(
    utilities: Mapping[str, float],
    triples: Mapping[Menu, Sequence[float]],
    measures: str,
) -> SimulatedPoint:
    """Reduce the logit world at these utilities and market compositions.

    `measures` is "bias", "distance" or "both".
    """
    space, correspondence, domain = make_world()
    composition = composition_from_triples(triples, domain)
    rho = reduce_dataset(utilities, correspondence, composition, domain.menus)
    estimates = bias_value = distance = None
    if measures in ("bias", "both"):
        markets = StochasticChoice(space, {m: rho.row(m) for m in MARKET_MENUS})
        estimates = fit_aggregated_logit(markets, normalize="a0")
        bias_value = bias(estimates, utilities)
    if measures in ("distance", "both"):
        distance = aru_distance(rho, space).squared_distance
    return SimulatedPoint(rho, estimates, bias_value, distance)


@dataclass(frozen=True)
class SweepRow:
    point: tuple[tuple[str, float], ...]
    bias: float | None
    squared_distance: float | None


def sweep(mode: str, step: float, measures: str) -> list[SweepRow]:
    """Evaluate bias and ARU distance over a parameter grid.

    Lambda mode varies the LAMBDA_SWEEP_MENU market's composition triple
    over the simplex grid at `step`, the other markets at
    LAMBDA_SWEEP_TRIPLES; utility mode varies u(z) and u(w) over a square
    grid from UTILITY_LOW to UTILITY_HIGH at `step`, the markets at
    UTILITY_SWEEP_TRIPLES.  The other utilities are DEFAULT_UTILITIES.
    `measures` is "bias", "distance" or "both".  Rows come out in grid
    order.
    """
    if mode == "lambda":
        grid = [
            (
                (("lam_z", z), ("lam_w", w), ("lam_zw", zw)),
                DEFAULT_UTILITIES,
                {**LAMBDA_SWEEP_TRIPLES, LAMBDA_SWEEP_MENU: (z, w, zw)},
            )
            for z, w, zw in simplex_grid(step)
        ]
    elif mode == "utility":
        steps = round((UTILITY_HIGH - UTILITY_LOW) / step)
        marks = [UTILITY_LOW + i * step for i in range(steps + 1)]
        grid = [
            (
                (("u_z", uz), ("u_w", uw)),
                {**DEFAULT_UTILITIES, "z": uz, "w": uw},
                UTILITY_SWEEP_TRIPLES,
            )
            for uz in marks
            for uw in marks
        ]
    else:
        raise ValueError(f"unknown sweep mode {mode!r}")
    rows = []
    for coords, utilities, triples in grid:
        point = simulate_point(utilities, triples, measures)
        rows.append(SweepRow(coords, point.bias, point.squared_distance))
    return rows


# ---------------------------------------------------------------------------
# Extremal-bias table
# ---------------------------------------------------------------------------


def _market_vectors(utilities: Mapping[str, float]) -> dict[str, np.ndarray]:
    """Per-subset logit shares for each market, in SUBSET_ORDER."""
    realizations = {"z": ["z"], "w": ["w"], "zw": ["z", "w"]}

    def shares(base: list[str], item: str) -> np.ndarray:
        return np.array(
            [
                logit_choice(utilities, base + realizations[s])[item]
                for s in SUBSET_ORDER
            ]
        )

    return {
        "xa0_x": shares(["x"], "x"),
        "ya0_y": shares(["y"], "y"),
        "xya0_x": shares(["x", "y"], "x"),
        "xya0_y": shares(["x", "y"], "y"),
    }


@dataclass(frozen=True)
class MinMaxRow:
    lam_w: float
    lam_z: float
    max_bias: float
    min_bias: float
    min_abs_bias: float
    independent_bias: float


def _bias_extremes(
    ux: np.ndarray, uy: np.ndarray, gap: float
) -> tuple[float, float, float]:
    """Max, min and min-abs of ``ux[i] - uy[j] - gap`` over all pairs (i, j).

    Gives the floats of the full pair matrix without building it.
    Rounding is monotone, so the bias rises with ux[i] and falls with
    uy[j]: the max and min come from the extremes of ux and uy, and for
    each ux[i] the smallest absolute bias sits where the bias changes
    sign along the sorted uy.  That is at the insertion point of
    ``ux[i] - gap``, up to rounding, so its two neighbours on each side
    are checked.  The inputs must be finite.
    """
    max_bias = ux.max() - uy.min() - gap
    min_bias = ux.min() - uy.max() - gap
    uy_sorted = np.sort(uy)
    at = np.searchsorted(uy_sorted, ux - gap)
    near = np.clip(at[:, None] + np.arange(-2, 2), 0, len(uy) - 1)
    min_abs_bias = np.abs(ux[:, None] - uy_sorted[near] - gap).min()
    return float(max_bias), float(min_bias), float(min_abs_bias)


def minmax_bias(outer_step: float = 0.1, inner_step: float = 0.1) -> list[MinMaxRow]:
    """Extremal biases over all admissible market compositions.

    The utilities are DEFAULT_UTILITIES.  Each binary market exactly
    identifies its own utility against the pinned outside aggregate
    (u_hat(x) is the log share ratio of the {x, a0} market, likewise for
    y), which is the aggregated-logit fit on those two markets.  For each
    composition triple of the grand menu {x, y, a0}, the inner grid
    ranges over every pair of triples for the two binary markets;
    reported per outer point are the most positive bias, the most
    negative bias, the smallest absolute bias, and the bias of the
    menu-independent point where all three triples coincide.  The three
    extremes range over the binary markets only, so they are computed
    once and repeat in every row.  Rows come out in (lam_w, lam_z) grid
    order, matching the table axes.
    """
    vectors = _market_vectors(DEFAULT_UTILITIES)
    true_gap = DEFAULT_UTILITIES["x"] - DEFAULT_UTILITIES["y"]

    def fit(share: float) -> float:
        return math.log(share / (1.0 - share))

    inner = np.array(simplex_grid(inner_step))
    ux_all = np.log(inner @ vectors["xa0_x"]) - np.log1p(-(inner @ vectors["xa0_x"]))
    uy_all = np.log(inner @ vectors["ya0_y"]) - np.log1p(-(inner @ vectors["ya0_y"]))
    max_bias, min_bias, min_abs_bias = _bias_extremes(ux_all, uy_all, true_gap)

    rows: list[MinMaxRow] = []
    for z, w, zw in sorted(simplex_grid(outer_step), key=lambda t: (t[1], t[0])):
        triple = np.array([z, w, zw])
        independent = (
            fit(float(triple @ vectors["xa0_x"]))
            - fit(float(triple @ vectors["ya0_y"]))
            - true_gap
        )
        rows.append(
            MinMaxRow(
                lam_w=w,
                lam_z=z,
                max_bias=max_bias,
                min_bias=min_bias,
                min_abs_bias=min_abs_bias,
                independent_bias=independent,
            )
        )
    return rows
