"""Polytope-level computations on stochastic choice data.

The ARU polytope is the convex hull of the deterministic tables induced
by linear orders on the aggregates; the RU polytope is the much larger
hull of menu-effect vertices.  Both linear minimization oracles are
shortest paths on the subset lattice of the aggregates (`lattice`), so
no order is enumerated.  This module computes Euclidean distance to the
ARU polytope (the lattice's fully corrective Frank-Wolfe), provides the
linear minimization oracle over RU vertices, sparsifies RU-rational data
into uniform mixtures of few vertices, and builds the explicit datasets
witnessing the strictness of the fixed-composition-size nesting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linprog
from .axioms import check_ru_rational
from .errors import NotRURational, TooLarge, VariantUnavailable
from .lattice import _frank_wolfe, _LatticeCells
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    Menu,
    MenuCollectionFamily,
    PreferenceDistribution,
    StochasticChoice,
    all_orders,
    forward_evaluate,
    nonempty_subsets,
    order_events,
    verify_replay,
)
from .rationalize import Rationalization
from .tolerances import (
    ANCHOR_TOL,
    GRID_REPLAY_TOL,
    GRID_TOL,
    PROB_TOL,
    grid_steps,
)

#: Upper bound on the number of composition candidates the grid oracle
#: will enumerate before refusing.
GRID_BUDGET = 5_000_000

#: Step of the grid oracle's composition weights.
GRID_RESOLUTION = 0.02


@dataclass(frozen=True)
class DistanceResult:
    """Projection of a dataset onto the ARU polytope.

    `lower_bound` is the squared distance at the last iterate minus the
    duality gap there: no point of the polytope is nearer, so when it is
    positive the data are certified to lie outside.
    """

    squared_distance: float
    mixture: Mapping[LinearOrder, float]
    projection: StochasticChoice
    duality_gap: float
    lower_bound: float
    iterations: int
    hit_iteration_cap: bool
    objective_trace: tuple[float, ...] = ()


def aru_distance(rho: StochasticChoice, space: AggregateSpace) -> DistanceResult:
    """Squared Euclidean distance from the data to the ARU polytope.

    Runs `_frank_wolfe` from the data's cell values, a stack of one.
    Hitting the iteration cap (`lattice.MAX_FW_ITERATIONS`) is reported
    in the result, never silent.
    """
    lattice = _LatticeCells(space, rho.domain())
    (run,) = _frank_wolfe(lattice, lattice.values(rho)[None])
    members = space.members
    mixture = {
        LinearOrder(tuple(members[k] for k in order)): float(w)
        for order, w in zip(run.orders, run.weights)
    }
    return DistanceResult(
        squared_distance=run.squared_distance,
        mixture=mixture,
        projection=lattice.choice(run.point),
        duality_gap=run.gap,
        lower_bound=run.trace[-1] - run.gap,
        iterations=len(run.trace),
        hit_iteration_cap=run.hit_iteration_cap,
        objective_trace=run.trace,
    )


GradientMap = Mapping[tuple[Menu, str], float]


def ru_vertex_lmo(
    gradient: GradientMap, space: AggregateSpace, domain: ChoiceDomain
) -> tuple[LinearOrder, MenuCollectionFamily]:
    """Menu-effect vertex minimizing an inner product with the gradient.

    Cells absent from the gradient cost 0.  The oracle is
    `_LatticeCells.cheapest_ru`: each menu follows the order unless its
    cheapest non-atomic member is strictly cheaper, and the order is the
    first, in `all_orders` order, of least total.
    """
    lattice = _LatticeCells(space, domain)
    costs = np.array([gradient.get(cell, 0.0) for cell in lattice.cells])
    order, family, _ = lattice.cheapest_ru(costs)
    return order, family


@dataclass(frozen=True)
class SparseApproximation:
    """Uniform mixture of few RU vertices near a target dataset."""

    vertices: tuple[tuple[LinearOrder, MenuCollectionFamily], ...]
    weights: tuple[float, ...]
    approximation: StochasticChoice
    achieved: float  # mean squared distance ||rho - rho'||^2 / |D|
    bound: float  # 1/k guarantee for data inside the RU polytope
    fw_achieved: float  # same measure for the weighted Frank-Wolfe iterate
    certifies_ru_n: int  # k vertices certify membership at composition size k+1


def approx_caratheodory(
    rho: StochasticChoice, k: int, space: AggregateSpace
) -> SparseApproximation:
    """Select k RU vertices whose uniform average approximates the data.

    Runs k greedy Frank-Wolfe steps from the vertex oracle, each
    minimizing the distance of the running uniform average to the data
    (every RU vertex has the same norm, so this exact greedy step is
    itself an oracle call).  The uniform 1/k mixture of the selected
    vertices then has mean squared distance at most 1/k whenever the
    data lies inside the RU polytope.  The classical 2/(t+2)-weighted
    Frank-Wolfe iterate over the same selection is reported alongside.
    Data that fail `check_ru_rational` raise `NotRURational`, because the
    bound holds only inside the RU polytope.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if not check_ru_rational(rho, space).passed:
        raise NotRURational("sparse approximation needs RU-rational data")
    domain = rho.domain()
    lattice = _LatticeCells(space, domain)
    target = lattice.values(rho)
    dim = float(len(domain.menus))

    chosen: list[tuple[LinearOrder, MenuCollectionFamily]] = []
    running = np.zeros_like(target)
    x = np.zeros_like(target)  # the 2/(t+2)-weighted Frank-Wolfe iterate
    for t in range(k):
        # argmin_v ||(running + v)/(t+1) - target||^2 over vertices reduces
        # to a linear oracle because ||v||^2 is constant across vertices.
        order, family, row = lattice.cheapest_ru(running - (t + 1.0) * target)
        chosen.append((order, family))
        running = running + row
        step = 2.0 / (t + 2.0)
        x = (1.0 - step) * x + step * row

    uniform = running / k
    approximation = lattice.choice(uniform)
    return SparseApproximation(
        vertices=tuple(chosen),
        weights=tuple([1.0 / k] * k),
        approximation=approximation,
        achieved=float(((uniform - target) ** 2).sum()) / dim,
        bound=1.0 / k,
        fw_achieved=float(((x - target) ** 2).sum()) / dim,
        certifies_ru_n=k + 1,
    )


def vertex_count_lower_bound(n: int) -> tuple[int, int]:
    """Lower bounds on the RU polytope's vertex count for n atomic ids.

    Returns the distinct-vertex count bound n! * 2^(2^n - C(n,2) - 1)
    and the floor of its ratio to the (n+1)! ARU vertex count, both as
    exact integers.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    exponent = 2**n - math.comb(n, 2) - 1
    count = math.factorial(n) * 2**exponent
    ratio_bound = 2**exponent // (n + 1)
    return count, ratio_bound


def build_nesting_counterexample(space: AggregateSpace) -> StochasticChoice:
    """The explicit dataset separating composition sizes m and m+1.

    Uniform on every all-atomic menu; on the prefix menus {y_1..y_n}
    with the outside aggregate added, y_n's probability drops to zero
    and the freed mass goes to the outside aggregate; every other menu
    keeps its atomic probabilities and gives the outside aggregate
    nothing.  The result is RU-rational with m+1 underlying
    alternatives in the outside aggregate but not with m.
    """
    if len(space.non_atomic) != 1:
        raise VariantUnavailable("construction needs exactly one non-atomic aggregate")
    if not space.atomic:
        raise ValueError("construction needs at least one atomic aggregate")
    (outside,) = space.non_atomic
    atoms = space.atomic
    prefixes = {frozenset(atoms[:n]): n for n in range(1, len(atoms) + 1)}
    table: dict[Menu, dict[str, float]] = {frozenset({outside}): {outside: 1.0}}
    for r in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, r):
            menu = frozenset(combo)
            table[menu] = {y: 1.0 / r for y in combo}
            mixed = menu | {outside}
            if menu in prefixes:
                n = prefixes[menu]
                row = {y: 1.0 / n for y in combo}
                row[atoms[n - 1]] = 0.0
                row[outside] = 1.0 / n
            else:
                row = {y: 1.0 / r for y in combo}
                row[outside] = 0.0
            table[mixed] = row
    return StochasticChoice(space, table)


# ---------------------------------------------------------------------------
# Grid evidence oracle for membership at a fixed composition size
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridOracleResult:
    found: bool
    witness: Rationalization | None
    candidates_checked: int


def _interior_grid(dim: int, steps: int) -> list[tuple[float, ...]]:
    """Strictly positive rational grid points on the (dim-1)-simplex."""
    if dim == 1:
        return [(1.0,)]
    out = []
    for combo in itertools.combinations(range(1, steps), dim - 1):
        cuts = (0,) + combo + (steps,)
        out.append(tuple((cuts[i + 1] - cuts[i]) / steps for i in range(dim)))
    return out


def grid_oracle_ru_n(rho: StochasticChoice, n: int) -> GridOracleResult:
    """Search for a rationalization with |X(outside)| = n exactly.

    Evidence procedure, not a decision procedure: per-menu composition
    distributions are searched over a finite candidate family and a
    feasibility LP over all orders of the extended ground set decides
    each candidate.  Cells that are 0, 1, or equal to their atomic-menu
    anchor admit an exact support-only reduction (the composition
    weights cancel from their equations), so only a menu's remaining
    value cells widen its supports (by the Caratheodory bound on
    mixture size), and support weights are gridded at GRID_RESOLUTION.
    `TooLarge` is raised from the candidate counts before any candidate
    is built; the search builds each candidate's LP rows when it visits
    it.  `found` returns a verified witness; `not_found` certifies only
    that no candidate in the searched family is feasible.
    """
    space = rho.space
    if len(space.non_atomic) != 1:
        raise TooLarge("oracle supports exactly one non-atomic aggregate")
    if len(space.atomic) > 3:
        raise TooLarge("oracle caps the atomic count at 3")
    if not 2 <= n <= 3:
        raise TooLarge("oracle supports composition sizes 2 and 3 only")
    (outside,) = space.non_atomic
    steps = grid_steps(GRID_RESOLUTION, "GRID_RESOLUTION")

    synthetic = tuple(f"{outside}#{i}" for i in range(n))
    ground = space.atomic + synthetic
    subsets = nonempty_subsets(synthetic)
    # Every realized set is a subset of the ground (at most 6 ids).
    cells = [(s, y) for s in nonempty_subsets(ground) for y in s]
    events = order_events(ground, cells)
    row_of = {cell: c for c, cell in enumerate(cells)}

    def event_row(realized: frozenset[str], y: str) -> np.ndarray:
        """1.0 for each order whose best element of `realized` is y."""
        return events[row_of[realized, y]].astype(float)

    # Static rows: atomic menus pin the atomic marginals of every order.
    base_rows = [
        (event_row(menu, a), rho.prob(menu, a))
        for menu in rho.menus
        if menu <= space.atomic_set
        for a in space.sort(menu)
    ]

    def plan(menu: Menu):
        """The candidate count of an outside-aggregate menu and its
        candidate generator.  Each candidate is its weights by subset
        and its LP rows: each support subset's zero, one and anchor
        rows, then one mixture row per value cell."""
        atoms = menu & space.atomic_set
        targets = {y: rho.prob(menu, y) for y in space.sort(atoms)}
        anchored = atoms in set(rho.menus)

        def classify(y: str) -> str:
            p = targets[y]
            if p <= PROB_TOL:
                return "zero"
            if p >= 1.0 - PROB_TOL:
                return "one"
            if anchored and abs(p - rho.prob(atoms, y)) <= ANCHOR_TOL:
                return "anchor"
            return "value"

        kinds = {y: classify(y) for y in targets}
        value_cells = [y for y, kind in kinds.items() if kind == "value"]
        # Without atomic ids the composition is irrelevant: fix it to
        # the full set.
        sets = subsets if atoms else [frozenset(synthetic)]
        sizes = range(1, min(len(value_cells) + 1, len(sets)) + 1)
        # A support of size k has C(steps - 1, k - 1) interior weights.
        count = sum(
            math.comb(len(sets), k) * math.comb(steps - 1, k - 1) for k in sizes
        )

        def subset_rows(s: frozenset[str]) -> list[tuple[np.ndarray, float]]:
            realized = atoms | s
            rows = []
            for y, kind in kinds.items():
                if kind == "anchor":
                    diff = event_row(realized, y) - event_row(atoms, y)
                    rows.append((diff, 0.0))
                elif kind != "value":
                    rows.append((event_row(realized, y), float(kind == "one")))
            return rows

        def candidates():
            for size in sizes:
                for support in itertools.combinations(sets, size):
                    for weights in _interior_grid(size, steps):
                        lam = dict(zip(support, weights))
                        rows = [row for s in support for row in subset_rows(s)]
                        for y in value_cells:
                            mixed = sum(
                                w * event_row(atoms | s, y) for s, w in lam.items()
                            )
                            rows.append((mixed, targets[y]))
                        yield lam, rows

        return count, menu, candidates

    plans = [plan(menu) for menu in rho.menus if outside in menu]
    if math.prod(max(count, 1) for count, _, _ in plans) > GRID_BUDGET:
        raise TooLarge(f"candidate space exceeds the oracle budget ({GRID_BUDGET})")

    # Depth-first search, cheapest plans first, with zero-propagation
    # pruning before each feasibility LP.
    plans.sort(key=lambda p: (p[0], space.menu_key(p[1])))
    n_orders = events.shape[1]
    checked = 0

    def solve(rows: list[tuple[np.ndarray, float]]) -> dict[int, float] | None:
        """The support of a feasible mixture, by order index, or None."""
        forced_zero = np.zeros(n_orders, dtype=bool)
        for row, rhs in rows:
            if rhs == 0.0 and (row >= 0).all():
                forced_zero |= row > 0.5
            elif rhs == 0.0 and (row <= 0).all():
                forced_zero |= row < -0.5
            elif rhs == 1.0 and (row <= 1).all() and (row >= 0).all():
                forced_zero |= row < 0.5
        for row, rhs in rows:
            if rhs > GRID_TOL and np.clip(row, 0.0, None)[~forced_zero].sum() < rhs:
                return None
        keep = np.flatnonzero(~forced_zero)
        a = np.array([row[keep] for row, _ in rows]).reshape(len(rows), keep.size)
        b = np.array([rhs for _, rhs in rows])
        result, support = linprog.solve_mixture(a, b, GRID_TOL)
        if not result.feasible:
            return None
        return {int(keep[j]): w for j, w in support.items()}

    assignment: dict[Menu, dict[frozenset[str], float]] = {}

    def dfs(level: int, rows: list) -> dict[int, float] | None:
        """The support of the first feasible leaf below, from its own solve."""
        nonlocal checked
        _, menu, candidates = plans[level]
        for lam, candidate_rows in candidates():
            checked += 1
            new_rows = rows + candidate_rows
            result = solve(new_rows)
            if result is None:
                continue
            assignment[menu] = lam
            if level + 1 < len(plans):
                result = dfs(level + 1, new_rows)
            if result is not None:
                return result
            del assignment[menu]
        return None

    support = dfs(0, base_rows) if plans else solve(base_rows)
    if support is None:
        return GridOracleResult(False, None, checked)

    orders = all_orders(ground)
    prefs = PreferenceDistribution({orders[i]: w for i, w in support.items()})
    correspondence = AggregationCorrespondence.identity_atomic(
        space, {outside: synthetic}
    )
    per_menu = {
        menu: {
            CompositionTuple.of({outside: s}): w for s, w in lam.items()
        }
        for menu, lam in assignment.items()
    }
    composition = CompositionDistribution(per_menu)
    produced = forward_evaluate(prefs, correspondence, composition, rho.domain())
    residual = verify_replay(
        produced.table, rho.table, GRID_REPLAY_TOL, "oracle witness"
    )
    witness = Rationalization(
        prefs,
        correspondence,
        composition,
        metadata={"method": "grid-oracle", "n": n, "resolution": GRID_RESOLUTION},
        residual=residual,
    )
    return GridOracleResult(True, witness, checked)
