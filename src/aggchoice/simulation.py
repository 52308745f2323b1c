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

from .errors import MissingUtility, NoConvergence, NotIdentified, TooLarge
# Unused here, but bench/tracing.py patches this name at this import site.
from .geometry import aru_distance  # noqa: F401
from .lattice import _frank_wolfe, _LatticeCells
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    Menu,
    StochasticChoice,
    _validate_rows,
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


def _utility_column(
    columns: dict[str, np.ndarray], utilities: Sequence[UtilityMap], x: str
) -> np.ndarray:
    """Every point's utility of `x`, built once per id into `columns`."""
    if x not in columns:
        try:
            columns[x] = np.array([u[x] for u in utilities])
        except KeyError as err:
            raise MissingUtility(f"no utility for {err.args[0]!r}") from None
    return columns[x]


def _menu_rows(
    utilities: Sequence[UtilityMap],
    owner: Mapping[str, str],
    menu: Menu,
    realized: tuple[Sequence[Sequence[tuple[float, list[str]]]], np.ndarray],
    columns: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """One menu's row at each point, in lockstep: each aggregate's
    probability at every point, as an array, aggregates in the menu's
    iteration order.

    `realized` holds the distinct lists of weighted realized sets, and
    for each point of `utilities` the index of its list.  A point's row
    sums each of its realized sets' softmax mass, times the set's
    weight, within each aggregate, set by set in list order.  Points
    whose realized sets hold the same ids share one softmax per set, an
    array with a row per point.  Each float comes from the operations
    `logit_choice` makes on one point and set, in the same order:
    `np.exp`, and numpy's row sum, which adds a row of at most four
    terms left to right, as its sum of one such array does.  `columns`
    caches the utility columns of `utilities` across menus.
    """
    lists, which = realized
    shapes: dict[tuple, int] = {}
    kinds = [
        shapes.setdefault(tuple(tuple(ids) for _, ids in sets), len(shapes))
        for sets in lists
    ]
    groups = np.array(kinds).take(which)
    rows = {a: np.zeros(len(which)) for a in menu}
    for g, shape in enumerate(shapes):
        members = [m for m, kind in enumerate(kinds) if kind == g]
        at = np.flatnonzero(groups == g)
        sums = {a: np.zeros(len(at)) for a in menu}
        for r, ids in enumerate(shape):
            u = np.column_stack(
                [_utility_column(columns, utilities, x)[at] for x in ids]
            )
            u = u - u.max(axis=1, keepdims=True)
            p = np.exp(u)
            p /= p.sum(axis=1, keepdims=True)
            weights = np.zeros(len(lists))
            weights[members] = [lists[m][r][0] for m in members]
            w = weights.take(which[at])
            for j, x in enumerate(ids):
                sums[owner[x]] += w * p[:, j]
        for a, s in sums.items():
            rows[a][at] = s
    return rows


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
    columns: dict[str, np.ndarray] = {}
    table: dict[Menu, dict[str, float]] = {}
    for menu in menus:
        menu = frozenset(menu)
        realized = list(realizations(menu, correspondence, composition))
        point = ([realized], np.zeros(1, int))
        rows = _menu_rows([utilities], owner, menu, point, columns)
        table[menu] = {a: float(row[0]) for a, row in rows.items()}
    return StochasticChoice(correspondence.space, table)


def _check_identified(menus: Iterable[Menu], pinned: str) -> list[str]:
    menus = list(menus)
    aggregates: set[str] = set()
    for menu in menus:
        aggregates |= menu
    if pinned not in aggregates:
        raise NotIdentified(f"pinned aggregate {pinned!r} appears in no menu")
    reached = {pinned}
    frontier = [pinned]
    adjacency: dict[str, set[str]] = {a: set() for a in aggregates}
    for menu in menus:
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


#: Per-menu shares of tables on the same menus: a row per table and a
#: column per item of the menu, items sorted.
Shares = Mapping[Menu, np.ndarray]


class _Likelihood:
    """Log likelihoods of tables on the same menus, over sorted free params.

    `shares` holds the tables' shares, menu by menu in the order the sums
    run.  The menu layout (the params among each menu's sorted items) is
    built once, for every evaluation of a fit.
    """

    def __init__(self, shares: Shares, params: Sequence[str]):
        index = {a: i for i, a in enumerate(params)}
        self.size = len(params)
        self.menus = []
        for menu, menu_shares in shares.items():
            slots = [index.get(a) for a in sorted(menu)]
            free = [(i, slot) for i, slot in enumerate(slots) if slot is not None]
            self.menus.append((menu_shares, slots, free))

    def __call__(
        self, values: np.ndarray, which: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log likelihood, gradient and Hessian of the tables `which`.

        Row k of `values` holds the params of table `which[k]`; the other
        aggregates' utilities are 0.  One pass over the menus, each a
        softmax with a row per table.  The sums run in one table's order:
        menu by menu, item by item, each log with `math.log`.
        """
        n = len(which)
        ll = np.zeros(n)
        grad = np.zeros((n, self.size))
        hess = np.zeros((n, self.size, self.size))
        for shares, slots, free in self.menus:
            shares = shares[which]
            u = np.zeros((n, len(slots)))
            for i, slot in free:
                u[:, i] = values[:, slot]
            u = u - u.max(axis=1, keepdims=True)
            p = np.exp(u)
            total = p.sum(axis=1)
            logs = np.array([math.log(t) for t in total.tolist()])
            logits = u - logs[:, None]
            p = p / total[:, None]
            for i, slot in enumerate(slots):
                share = shares[:, i]
                ll += np.where(share > 0.0, share * logits[:, i], 0.0)
                if slot is not None:
                    grad[:, slot] += share - p[:, i]
            for i, gi in free:
                for j, gj in free:
                    both = p[:, i] * p[:, j]
                    hess[:, gi, gj] -= (1.0 if i == j else 0.0) * p[:, i] - both
        return ll, grad, hess


#: The aggregate whose utility the aggregated-logit fit pins to 0.
PINNED = "a0"


def _newton_steps(neg_hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Each Newton step, solving one system per row of `grad`.

    One stacked solve runs LAPACK's gesv on each matrix, as a solve of
    that matrix alone does.  When a matrix is singular, the stack is
    solved matrix by matrix, and each singular one takes the
    least-squares step.
    """
    try:
        return np.linalg.solve(neg_hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = []
        for a, b in zip(neg_hess, grad):
            try:
                steps.append(np.linalg.solve(a, b))
            except np.linalg.LinAlgError:
                steps.append(np.linalg.lstsq(a, b, rcond=None)[0])
        return np.array(steps)


def _fit_lockstep(shares: Shares) -> list[dict[str, float]]:
    """`fit_aggregated_logit` of each table, all in one damped Newton run.

    `shares` holds the tables' shares, menu by menu in the order of
    `StochasticChoice.menus`.  Each iteration solves the steps of the
    tables still above GRADIENT_TOL together, then halves each step until
    its table's likelihood keeps from falling; each table sees the
    iterations, halvings and floats of its own fit.  The first table to
    fail raises, in the order the run reaches it.
    """
    free = _check_identified(shares, PINNED)
    count = len(next(iter(shares.values())))
    if not free:
        return [{PINNED: 0.0} for _ in range(count)]
    likelihood = _Likelihood(shares, free)
    active = np.arange(count)
    values = np.zeros((count, len(free)))
    current, grad, hess = likelihood(values, active)
    for _ in range(MAX_NEWTON_ITERATIONS):
        active = active[~(np.abs(grad[active]).max(axis=1) <= GRADIENT_TOL)]
        if not active.size:
            return [{**dict(zip(free, row)), PINNED: 0.0} for row in values.tolist()]
        step = _newton_steps(-hess[active], grad[active])
        scale = np.ones(len(active))
        waiting = np.arange(len(active))
        for _ in range(MAX_STEP_HALVINGS):
            at = active[waiting]
            trial = values[at] + scale[waiting, None] * step[waiting]
            evaluated, trial_grad, trial_hess = likelihood(trial, at)
            kept = evaluated >= current[at] - ASCENT_SLACK
            taken = at[kept]
            values[taken] = trial[kept]
            current[taken] = evaluated[kept]
            grad[taken] = trial_grad[kept]
            hess[taken] = trial_hess[kept]
            waiting = waiting[~kept]
            if not waiting.size:
                break
            scale[waiting] *= 0.5
        else:
            raise NoConvergence("step halving failed to improve the likelihood")
    raise NoConvergence("Newton hit the iteration cap before the gradient tolerance")


def fit_aggregated_logit(rho: StochasticChoice) -> dict[str, float]:
    """Maximum-likelihood aggregated logit with PINNED's utility at 0.

    Maximizes the equally-menu-weighted log likelihood by damped Newton
    (concave objective; step halving up to 40 times per iteration; a
    singular Hessian gives the least-squares step).
    Returns the utility map including the pinned aggregate at exactly 0.
    Raises `NotIdentified` for a disconnected menu graph and
    `NoConvergence` if 200 iterations do not reach gradient norm
    GRADIENT_TOL, or if 40 halvings of one step never keep the
    likelihood from falling.
    """
    return _fit_lockstep(
        {m: np.array([[rho.prob(m, a) for a in sorted(m)]]) for m in rho.menus}
    )[0]


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


def _menu_triples(
    triples: Mapping[Menu, Sequence[float]], domain: ChoiceDomain
) -> dict[Menu, Sequence[float]]:
    """The triple of each outside-aggregate menu of the domain, in domain
    order: its own, or else the full menu's."""
    fallback = triples.get(frozenset({"x", "y", "a0"}))
    per_menu = {}
    for menu in domain.menus:
        if "a0" not in menu:
            continue
        triple = triples.get(frozenset(menu), fallback)
        if triple is None:
            raise KeyError(f"no composition triple for menu {sorted(menu)}")
        per_menu[frozenset(menu)] = triple
    return per_menu


def composition_from_triples(
    triples: Mapping[Menu, Sequence[float]], domain: ChoiceDomain
) -> CompositionDistribution:
    """Per-menu triples for the outside-aggregate menus of the domain.

    Menus containing a0 but missing from `triples` reuse the full-menu
    triple (markets outside the three observed ones share its mix).
    """
    per_menu = _menu_triples(triples, domain)
    return CompositionDistribution(
        {menu: triple_to_tuples(triple) for menu, triple in per_menu.items()}
    )


#: The most points a grid may hold: `simplex_grid` and the utility
#: sweep's square grid raise `TooLarge` above it, before building any.
MAX_GRID_POINTS = 1_000_000


def _check_grid(points: int, what: str) -> None:
    if points > MAX_GRID_POINTS:
        raise TooLarge(f"{what} holds more than {MAX_GRID_POINTS} points")


def simplex_grid(step: float) -> list[tuple[float, float, float]]:
    """(z, w, zw) triples with z and w on a step grid, zw the residual.

    Raises `TooLarge` when the grid would hold more than MAX_GRID_POINTS.
    """
    steps = grid_steps(step, "step")
    _check_grid((steps + 1) * (steps + 2) // 2, f"the simplex grid at step {step:g}")
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

    It holds the space, correspondence, domain, owner map, the domain's
    lattice cells and where the market cells sit among them, and the
    realized sets of each menu at each composition triple it has met.
    Points are then evaluated in lockstep and in arrays: the softmax rows
    of all points, one validation of them as the points' tables and one
    more of their market rows, one Newton run for all fits, and one
    Frank-Wolfe run for all projections.
    """

    def __init__(self):
        self.space, self.correspondence, self.domain = make_world()
        self.owner = self.correspondence.owner_map()
        self.lattice = _LatticeCells(self.space, self.domain)
        self._realized: dict[tuple, list] = {}
        cells = self.lattice.cells
        self.menu_cells = [(self.domain.menus.index(m), a) for m, a in cells]
        # The market cells in MARKET_MENUS order, the order their tables
        # are checked in, and the columns of each market's shares among
        # them, markets in the likelihood's order.
        self.market_cells = [(m, a) for m in MARKET_MENUS for a in self.space.sort(m)]
        self.market_columns = [cells.index(cell) for cell in self.market_cells]
        self.market_shares = [
            (m, [self.market_cells.index((m, a)) for a in sorted(m)])
            for m in self.space.sort_menus(MARKET_MENUS)
        ]

    def realized(
        self, triples: Mapping[Menu, Sequence[float]]
    ) -> list[list[tuple[float, list[str]]]]:
        """Each domain menu's weighted realized sets at `triples`.

        They are cached per menu and triple, so points that differ in one
        market's triple share the other menus' sets.
        """
        per_menu = _menu_triples(triples, self.domain)
        out = []
        for menu in self.domain.menus:
            triple = per_menu.get(menu)
            key = (menu, None if triple is None else tuple(triple))
            if key not in self._realized:
                parts = {} if triple is None else {menu: triple_to_tuples(triple)}
                composition = CompositionDistribution(parts)
                self._realized[key] = list(
                    realizations(menu, self.correspondence, composition)
                )
            out.append(self._realized[key])
        return out

    def measure(
        self,
        grid: Sequence[tuple[UtilityMap, Mapping[Menu, Sequence[float]]]],
        measures: str,
    ) -> tuple[np.ndarray, list, list, list]:
        """Reduce the logit world at each (utilities, market triples) pair
        and measure it, building no table.

        Returns the softmax rows, a row per point over `lattice.cells`,
        and each point's estimates, bias and squared distance, None where
        `measures` ("bias", "distance" or "both") leaves them out.  Each
        float is the one `points` gets alone: the rows are validated as
        each point's table, then its market rows once more as the market
        table, which may renormalize them again.  A row that fails
        raises, first point first, then first menu, with the error of its
        table.  All fits run before the Frank-Wolfe run, so a failing fit
        anywhere in `grid` raises before a failing projection; a point
        whose projection hits MAX_FW_ITERATIONS raises `NoConvergence`.
        Realized sets are looked up once per distinct triples mapping,
        not once per point.
        """
        utilities = [u for u, _ in grid]
        # Realized sets once per distinct triples mapping, told apart by
        # identity (the utility sweep's points all share one), and each
        # point's mapping.
        index: dict[int, int] = {}
        realized = []
        for _, triples in grid:
            if id(triples) not in index:
                index[id(triples)] = len(realized)
                realized.append(self.realized(triples))
        which = np.array([index[id(triples)] for _, triples in grid])
        columns: dict[str, np.ndarray] = {}
        rows = [
            _menu_rows(
                utilities, self.owner, menu, ([r[k] for r in realized], which), columns
            )
            for k, menu in enumerate(self.domain.menus)
        ]
        raw = np.column_stack([rows[k][a] for k, a in self.menu_cells])
        values = _validate_rows(raw, self.lattice.cells)
        estimates: list = [None] * len(grid)
        biases: list = [None] * len(grid)
        distances: list = [None] * len(grid)
        if measures in ("bias", "both"):
            markets = _validate_rows(values[:, self.market_columns], self.market_cells)
            estimates = _fit_lockstep(
                {m: markets[:, at] for m, at in self.market_shares}
            )
            biases = [bias(e, u) for e, u in zip(estimates, utilities)]
        if measures in ("distance", "both"):
            runs = _frank_wolfe(self.lattice, values)
            if any(run.hit_iteration_cap for run in runs):
                raise NoConvergence(
                    "Frank-Wolfe hit the iteration cap before the duality-gap tolerance"
                )
            distances = [run.squared_distance for run in runs]
        return raw, estimates, biases, distances

    def points(
        self,
        grid: Sequence[tuple[UtilityMap, Mapping[Menu, Sequence[float]]]],
        measures: str,
    ) -> list[SimulatedPoint]:
        """`measure` at each point, with its reduced table.

        `measures` is "bias", "distance" or "both".  Each point gets the
        floats it gets alone, and its table is built and validated from
        its softmax rows.
        """
        raw, estimates, biases, distances = self.measure(grid, measures)
        cells = self.lattice.cells
        reduced = []
        for row in raw.tolist():
            table: dict[Menu, dict[str, float]] = {}
            for (menu, a), p in zip(cells, row):
                table.setdefault(menu, {})[a] = p
            reduced.append(StochasticChoice(self.space, table))
        return [
            SimulatedPoint(*point)
            for point in zip(reduced, estimates, biases, distances)
        ]


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
    return _World().points([(utilities, triples)], measures)[0]


#: Grid points `sweep` evaluates in one lockstep batch: enough that
#: numpy's cost per call is spread thin, few enough that the batch's
#: arrays stay small.  The 441-point utility grid is one batch.  The
#: 10,201-point grid took 0.43 s at 45 MB peak RSS in batches of 1024,
#: 0.56 s at 43 MB in batches of 128, and 0.42 s at 56 MB in batches
#: of 4096 (2 vCPUs, one BLAS thread).
SWEEP_BATCH = 1024


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
    raises `InvalidGridStep`, and a grid of more than MAX_GRID_POINTS
    points raises `TooLarge` before it is built.  One world measures the
    points in lockstep and in arrays, SWEEP_BATCH (1024) at a time in
    grid order, and builds no table; a fit or a Frank-Wolfe run that
    fails raises `NoConvergence`, within a batch of up to 1024 points a
    fit's failure first.
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
        _check_grid((steps + 1) ** 2, f"the utility grid at step {step:g}")
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
    for start in range(0, len(grid), SWEEP_BATCH):
        batch = grid[start : start + SWEEP_BATCH]
        _, _, biases, distances = world.measure(
            [(u, t) for _, u, t in batch], measures
        )
        rows.extend(
            SweepRow(coords, b, d)
            for (coords, _, _), b, d in zip(batch, biases, distances)
        )
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
