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
from .geometry import _frank_wolfe, _LatticeCells
# Unused here, but bench/tracing.py patches this name at this import site.
from .geometry import aru_distance  # noqa: F401
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    Menu,
    StochasticChoice,
    realizations,
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


def _menu_row(
    utilities: UtilityMap,
    owner: Mapping[str, str],
    menu: Menu,
    realized: Iterable[tuple[float, list[str]]],
) -> dict[str, float]:
    """One menu's row: each realized set's softmax mass, times the set's
    weight, summed within each aggregate, set by set in `realized` order."""
    row = {a: 0.0 for a in menu}
    for w, ids in realized:
        for x, p in logit_choice(utilities, ids).items():
            row[owner[x]] += w * p
    return row


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
    Tuples are checked as `forward_evaluate` checks them.
    """
    owner = correspondence.owner_map()
    table: dict[Menu, dict[str, float]] = {}
    for menu in menus:
        menu = frozenset(menu)
        realized = realizations(menu, correspondence, composition)
        table[menu] = _menu_row(utilities, owner, menu, realized)
    return StochasticChoice(correspondence.space, table)


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


class _Likelihood:
    """Log likelihood of a table over sorted free params.

    The menu layout (each menu's items sorted, their shares, and the
    params among them) is built once, for every evaluation of a fit.
    """

    def __init__(self, rho: StochasticChoice, params: Sequence[str]):
        index = {a: i for i, a in enumerate(params)}
        self.size = len(params)
        self.menus = []
        for menu in rho.menus:
            items = sorted(menu)
            shares = [rho.prob(menu, a) for a in items]
            slots = [index.get(a) for a in items]
            free = [(i, slot) for i, slot in enumerate(slots) if slot is not None]
            self.menus.append((items, shares, slots, free))

    def __call__(
        self, values: Mapping[str, float]
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Log likelihood, gradient and Hessian at `values`.

        Utilities missing from `values` are 0.  One pass over the menus.
        """
        ll = 0.0
        grad = np.zeros(self.size)
        hess = np.zeros((self.size, self.size))
        for items, shares, slots, free in self.menus:
            u = np.array([values.get(a, 0.0) for a in items])
            u = u - u.max()
            p = np.exp(u)
            total = p.sum()
            logits = (u - math.log(total)).tolist()
            p = (p / total).tolist()
            for lp, pa, share, slot in zip(logits, p, shares, slots):
                if share > 0.0:
                    ll += share * lp
                if slot is not None:
                    grad[slot] += share - pa
            for i, gi in free:
                for j, gj in free:
                    hess[gi, gj] -= (1.0 if i == j else 0.0) * p[i] - p[i] * p[j]
        return ll, grad, hess


def _log_likelihood(
    rho: StochasticChoice, values: Mapping[str, float]
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log likelihood, gradient and Hessian over the sorted keys of `values`."""
    return _Likelihood(rho, sorted(values))(values)


#: The aggregate whose utility the aggregated-logit fit pins to 0.
PINNED = "a0"


def fit_aggregated_logit(rho: StochasticChoice) -> dict[str, float]:
    """Maximum-likelihood aggregated logit with PINNED's utility at 0.

    Maximizes the equally-menu-weighted log likelihood by damped Newton
    (concave objective; step halving up to 40 times per iteration).
    Returns the utility map including the pinned aggregate at exactly 0.
    Raises `NotIdentified` for a disconnected menu graph and
    `NoConvergence` if 200 iterations do not reach gradient norm
    GRADIENT_TOL.
    """
    free = _check_identified(rho, PINNED)
    values = {a: 0.0 for a in free}
    if not free:
        return {PINNED: 0.0}
    log_likelihood = _Likelihood(rho, free)
    current, grad, hess = log_likelihood(values)
    for _ in range(MAX_NEWTON_ITERATIONS):
        if np.abs(grad).max() <= GRADIENT_TOL:
            return {**values, PINNED: 0.0}
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(-hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(MAX_STEP_HALVINGS):
            trial = {a: values[a] + scale * s for a, s in zip(free, step)}
            evaluated = log_likelihood(trial)
            if evaluated[0] >= current - ASCENT_SLACK:
                values = trial
                current, grad, hess = evaluated
                break
            scale *= 0.5
        else:
            raise NoConvergence("step halving failed to improve the likelihood")
    raise NoConvergence("Newton hit the iteration cap before the gradient tolerance")


def bias(estimated: UtilityMap, true_utilities: UtilityMap) -> float:
    """Distortion of the estimated utility gap between x and y."""
    for m, who in ((estimated, "estimated"), (true_utilities, "true")):
        for key in ("x", "y"):
            if key not in m:
                raise MissingUtility(f"{who} utilities lack {key!r}")
    true_gap = true_utilities["x"] - true_utilities["y"]
    return (estimated["x"] - estimated["y"]) - true_gap


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


class _World:
    """The world of `make_world`, built once for many simulated points.

    It holds the space, correspondence, domain, owner map and the
    domain's lattice cells, and each distinct set of market triples'
    realized sets per menu.  A point then costs only its softmax sums,
    its validated table, the market fit and the Frank-Wolfe run.  The
    lattice's work arrays are reused, so one world serves one caller at
    a time.
    """

    def __init__(self):
        self.space, self.correspondence, self.domain = make_world()
        self.owner = self.correspondence.owner_map()
        self.lattice = _LatticeCells(self.space, self.domain)
        self._realized: dict[frozenset, list] = {}

    def realized(
        self, triples: Mapping[Menu, Sequence[float]]
    ) -> list[tuple[Menu, list[tuple[float, list[str]]]]]:
        """Each domain menu with its weighted realized sets at `triples`."""
        key = frozenset((frozenset(m), tuple(t)) for m, t in triples.items())
        if key not in self._realized:
            composition = composition_from_triples(triples, self.domain)
            self._realized[key] = [
                (menu, list(realizations(menu, self.correspondence, composition)))
                for menu in self.domain.menus
            ]
        return self._realized[key]

    def point(
        self,
        utilities: Mapping[str, float],
        triples: Mapping[Menu, Sequence[float]],
        measures: str,
    ) -> SimulatedPoint:
        """Reduce the logit world at these utilities and market compositions.

        `measures` is "bias", "distance" or "both".  A Frank-Wolfe run
        that hits MAX_FW_ITERATIONS raises `NoConvergence`.
        """
        table = {
            menu: _menu_row(utilities, self.owner, menu, realized)
            for menu, realized in self.realized(triples)
        }
        rho = StochasticChoice(self.space, table)
        estimates = bias_value = distance = None
        if measures in ("bias", "both"):
            markets = {m: rho.row(m) for m in MARKET_MENUS}
            estimates = fit_aggregated_logit(StochasticChoice(self.space, markets))
            bias_value = bias(estimates, utilities)
        if measures in ("distance", "both"):
            run = _frank_wolfe(self.lattice, self.lattice.values(rho))
            if run.hit_iteration_cap:
                raise NoConvergence(
                    "Frank-Wolfe hit the iteration cap before the duality-gap tolerance"
                )
            distance = run.squared_distance
        return SimulatedPoint(rho, estimates, bias_value, distance)


def simulate_point(
    utilities: Mapping[str, float],
    triples: Mapping[Menu, Sequence[float]],
    measures: str,
) -> SimulatedPoint:
    """Reduce the logit world at these utilities and market compositions.

    `measures` is "bias", "distance" or "both".  The squared distance is
    that of `aru_distance`; a Frank-Wolfe run that hits the iteration
    cap raises `NoConvergence` instead of returning it.
    """
    return _World().point(utilities, triples, measures)


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
    order.  A step that does not divide its range (1 for lambda mode)
    raises `InvalidGridStep`.  One world serves every point; a
    Frank-Wolfe run that hits the iteration cap raises `NoConvergence`.
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
        span = UTILITY_HIGH - UTILITY_LOW
        steps = grid_steps(step / span, f"step / {span:g}")
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
    world = _World()
    rows = []
    for coords, utilities, triples in grid:
        point = world.point(utilities, triples, measures)
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
