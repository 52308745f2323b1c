"""Polytope-level computations on stochastic choice data.

The ARU polytope is the convex hull of the deterministic tables induced
by linear orders on the aggregates; the RU polytope is the much larger
hull of menu-effect vertices.  Both linear minimization oracles are
shortest paths on the subset lattice of the aggregates, so no order is
enumerated.  This module computes Euclidean distance to the ARU
polytope (fully corrective Frank-Wolfe with Wolfe's minor cycles),
provides the linear minimization oracle over RU vertices,
sparsifies RU-rational data into uniform mixtures of few vertices, and
builds the explicit datasets witnessing the strictness of the
fixed-composition-size nesting.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import linprog
from .axioms import check_ru_rational
from .errors import AggChoiceError, NotRURational, TooLarge, VariantUnavailable
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
    _check_enumerable,
    all_orders,
    forward_evaluate,
    nonempty_subsets,
    order_events,
    verify_replay,
)
from .rationalize import Rationalization
from .tolerances import (
    ACTIVE_SET_FLOOR,
    ACTIVE_SET_TOL,
    AFFINE_TOL,
    ANCHOR_TOL,
    GAP_TOL,
    GRID_REPLAY_TOL,
    GRID_TOL,
    ORDER_TIE_TOL,
    PROB_TOL,
    grid_steps,
)

MAX_FW_ITERATIONS = 10_000

#: Upper bound on the number of composition candidates the grid oracle
#: will enumerate before refusing.
GRID_BUDGET = 5_000_000

#: Step of the grid oracle's composition weights.
GRID_RESOLUTION = 0.02


@dataclass(frozen=True)
class _Lattice:
    """The edges of the subset lattice on n ids, for shortest paths.

    A path from the empty set to the full one places one id per edge,
    best first, so it is an order.  Level L holds every set U of L ids,
    in ascending bitmask order, with one edge (U, k) per id k outside U,
    in ascending k.  Edge (U, k) collects the cells (A, k), written
    k * 2^n + the bitmask of A, over every A inside the complement of U
    that holds k: the menus whose best id the edge places.
    """

    n: int
    gather: np.ndarray  # every edge's cells, edge by edge, level by level
    starts: np.ndarray  # where each edge's cells begin in `gather`
    # Per level: its edges' slice of the edge costs, and for each of its
    # (sets, free ids) the row of U | {k} within the next level.
    levels: tuple[tuple[int, int, np.ndarray], ...]
    rows: tuple[int, ...]  # per set: its row within its level
    free: tuple[tuple[int, ...], ...]  # per set: the ids outside it, ascending


@functools.cache
def _lattice(n: int) -> _Lattice:
    """The subset lattice on n ids: n * 2^(n - 1) edges, 1024 at n = 8.

    Built on first use and cached per n, like `model._permutation_table`.
    """
    by_level: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_level[bin(mask).count("1")].append(mask)
    rows = [0] * (1 << n)
    free = [tuple(k for k in range(n) if not mask >> k & 1) for mask in range(1 << n)]
    for sets in by_level:
        for row, mask in enumerate(sets):
            rows[mask] = row
    gather: list[int] = []
    starts: list[int] = []
    levels = []
    full = (1 << n) - 1
    for sets in by_level[:n]:
        lo, after = len(starts), []
        for placed in sets:
            for k in free[placed]:
                starts.append(len(gather))
                rest = full ^ placed ^ (1 << k)
                subset = rest
                while True:
                    gather.append(k << n | subset | 1 << k)
                    if not subset:
                        break
                    subset = (subset - 1) & rest
            after.append([rows[placed | 1 << k] for k in free[placed]])
        levels.append((lo, len(starts), np.array(after)))
    return _Lattice(
        n, np.array(gather), np.array(starts), tuple(levels), tuple(rows), tuple(free)
    )


class _LatticeCells:
    """A domain's cells, addressed from the subset lattice.

    Positions are those of `space.members`, and a menu is the bitmask of
    its ids' positions; cells are in `ChoiceDomain.cells` order.  The
    lattice, like every order enumeration, is capped at
    MAX_ENUMERATION_GROUND ids.  The work arrays are reused from call to
    call, so one instance serves one caller at a time.
    """

    def __init__(self, space: AggregateSpace, domain: ChoiceDomain):
        if not domain.menus:
            raise AggChoiceError("the choice table has no menus")
        _check_enumerable(space.members)
        self.n = n = len(space.members)
        self.space = space
        self.cells = domain.cells()
        mask = {m: sum(1 << space.index(a) for a in m) for m in domain.menus}
        self.lattice = _lattice(n)
        self.ids = np.array([space.index(a) for _, a in self.cells])  # positions
        self.masks = np.array([mask[m] for m, _ in self.cells])  # menus
        sizes = [len(m) for m in domain.menus]
        self.menu_of = np.repeat(np.arange(len(sizes)), sizes)  # each cell's menu
        self.starts = np.array([0, *itertools.accumulate(sizes[:-1])])  # first cells
        self.deviant = self.ids >= len(space.atomic)  # members: atomic ids first
        self.table = np.zeros(n << n)  # cell (A, k) at k * 2^n + A
        self.index = self.ids << n | self.masks
        self.totals = np.empty(len(self.lattice.starts))
        # Each level's block of `totals`, from the full set down.
        self.levels = [
            (self.totals[lo:hi].reshape(after.shape), after)
            for lo, hi, after in reversed(self.lattice.levels)
        ]

    def cheapest(self, costs: np.ndarray) -> tuple[tuple[int, ...], float]:
        """The first order, in `all_orders` order, picking the cheapest cells.

        An order picks each menu's best id, so the cost of cell (A, k),
        `costs[i]` for cell i, is paid on the lattice edge that places k
        first among A's ids.  Edge (U, k) therefore costs f_k(complement
        of U), the sum of the costs of cells (A, k) over menus A inside
        the complement: a subset-sum (zeta) transform of the costs.
        Dynamic programming gives the least cost from each set to the
        full one.  Walking from the empty set and taking at each step the
        lowest position whose edge stays on a least path gives the first
        optimum in `all_orders` order.  Path costs within ORDER_TIE_TOL
        times the total absolute cost of each other count as equal, so a
        tie of the exact sums is not broken by rounding.  Returns the
        order, as positions best first, and the least total.
        """
        lattice = self.lattice
        self.table[self.index] = costs
        # Each edge's cost, then in place its cost plus the least cost
        # from where it leads, level by level from the full set down.
        np.add.reduceat(self.table[lattice.gather], lattice.starts, out=self.totals)
        (top, _), *rest = self.levels
        least = top[:, 0]  # sets of n - 1 ids: one edge each, to the full set
        for level, after in rest:
            level += least[after]
            least = level.min(axis=1)
        totals = self.totals.tolist()
        slack = ORDER_TIE_TOL * float(np.abs(costs).sum())
        order, placed = [], 0
        for lo, _, _ in lattice.levels:
            free = lattice.free[placed]
            start = lo + lattice.rows[placed] * len(free)
            choices = totals[start : start + len(free)]
            bound = min(choices) + slack
            for k, total in zip(free, choices):
                if total <= bound:
                    break
            order.append(k)
            placed |= 1 << k
        return tuple(order), float(least[0])

    def vertex(self, order: tuple[int, ...]) -> np.ndarray:
        """The 0/1 row of the cells `order` (positions, best first) picks.

        Cell (A, k) is picked when none of A's ids comes before k.
        """
        before = [0] * self.n
        placed = 0
        for k in order:
            before[k] = placed
            placed |= 1 << k
        return ((self.masks & np.array(before)[self.ids]) == 0).astype(float)

    def cheapest_ru(
        self, costs: np.ndarray
    ) -> tuple[LinearOrder, MenuCollectionFamily, np.ndarray]:
        """The RU vertex oracle: the first menu-effect vertex of least cost.

        Each menu follows the order or, when strictly cheaper than its
        pick, deviates to its cheapest non-atomic cell (ties to the
        earliest aggregate).  That deviation does not depend on the
        order, so the order is `cheapest` over c'(A, k) = min(c(A, k),
        best deviation on A).  Returns the order, the family of deviation
        menus by target, and the vertex's 0/1 row.
        """
        best = np.minimum.reduceat(np.where(self.deviant, costs, np.inf), self.starts)
        positions, _ = self.cheapest(np.minimum(costs, best[self.menu_of]))
        row = self.vertex(positions)
        picks = np.flatnonzero(row)  # one per menu, in menu order
        hits = np.flatnonzero(self.deviant & (costs == best[self.menu_of]))
        menus, first = np.unique(self.menu_of[hits], return_index=True)
        targets = dict(zip(menus.tolist(), hits[first].tolist()))
        deviations: dict[str, list[Menu]] = {}
        for j in np.flatnonzero(best < costs[picks]).tolist():
            row[picks[j]], row[targets[j]] = 0.0, 1.0
            menu, a = self.cells[targets[j]]
            deviations.setdefault(a, []).append(menu)
        family = MenuCollectionFamily({a: frozenset(m) for a, m in deviations.items()})
        order = LinearOrder(tuple(self.space.members[k] for k in positions))
        return order, family, row

    def values(self, rho: StochasticChoice) -> np.ndarray:
        """The data's value at each cell."""
        return np.array([rho.prob(m, a) for m, a in self.cells])

    def choice(self, values: np.ndarray) -> StochasticChoice:
        """The table holding `values` at the cells, the inverse of `values`."""
        table: dict[Menu, dict[str, float]] = {}
        for (menu, a), p in zip(self.cells, values):
            table.setdefault(menu, {})[a] = float(p)
        return StochasticChoice(self.space, table)


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


class _Corral:
    """The active vertices of Frank-Wolfe, kept affinely independent.

    Each active vertex is held as a 0/1 row over the cells.  With
    p = vertex - target, the nearest point of the active points' affine
    hull has weights proportional to G^-1 1, where G = 1 + p_i . p_j is
    their augmented Gram matrix (Wolfe 1976).  G = R^T R is kept as its
    triangular factor R and the inverse S of R: a vertex entering borders
    both, and one leaving is removed by Givens rotations, each in O(k^2)
    (Lawson and Hanson 1974).  Products of two rows are counts of shared
    cells.  No matrix-matrix product runs except the 2 x 2 rotations:
    OpenBLAS splits larger ones by thread count, which changes their
    rounding, so the result would depend on the thread count.
    """

    def __init__(self, target: np.ndarray, menus: int):
        self.target = target
        self.offset = 1.0 + float(target @ target)
        self.menus = menus
        self.orders: list[tuple[int, ...]] = []
        self.rows = np.empty((0, len(target)))
        self.dots = np.empty(0)  # each row's product with the target
        self.factor = np.empty((0, 0))  # R
        self.inverse = np.empty((0, 0))  # S = R^-1

    def enter(
        self, order: tuple[int, ...], row: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Add the vertex of this 0/1 row; the weights extended to it.

        The new vertex starts at weight 0.  One that lies in the active
        vertices' affine hull (the square of its new diagonal entry of R
        at most AFFINE_TOL times its entry of G) would make G singular.
        It is exchanged in instead, as a simplex pivot would: it is the
        affine combination beta = G^-1 (its column of G) of the active
        points, so moving weight theta onto it and theta * beta off them
        keeps the point; theta stops where the first active vertex
        reaches weight 0 and leaves.
        """
        dot = float(row @ self.target)
        projected, pivot, corner = self._border(row, dot)
        theta = 0.0
        if pivot <= AFFINE_TOL * corner:
            beta = self.inverse @ projected
            ratio = np.full(len(beta), math.inf)
            ratio[beta > 0] = weights[beta > 0] / beta[beta > 0]
            leave = int(np.argmin(ratio))
            theta = float(ratio[leave])
            weights = np.delete(weights - theta * beta, leave)
            self._remove(leave)
            projected, pivot, corner = self._border(row, dot)
        k = len(projected)
        diagonal = math.sqrt(pivot)
        factor = np.zeros((k + 1, k + 1))
        factor[:k, :k] = self.factor
        factor[:k, k] = projected
        factor[k, k] = diagonal
        inverse = np.zeros((k + 1, k + 1))
        inverse[:k, :k] = self.inverse
        inverse[:k, k] = (self.inverse @ projected) / -diagonal
        inverse[k, k] = 1.0 / diagonal
        self.factor, self.inverse = factor, inverse
        self.orders.append(order)
        self.rows = np.concatenate((self.rows, row[None]))
        self.dots = np.concatenate((self.dots, [dot]))
        return np.concatenate((weights, [theta]))

    def descend(self, weights: np.ndarray) -> np.ndarray:
        """Minimize the distance over the active vertices' convex hull.

        Wolfe's minor cycle: go to the affine minimizer when its weights
        are all above -ACTIVE_SET_TOL; otherwise step toward it until a
        weight reaches 0 (or falls below ACTIVE_SET_FLOOR), drop the
        vertices left at 0, and repeat.  Vertices at weight 0 leave.

        A pass that does not return zeroes its blocking weight (up to
        rounding, far below ACTIVE_SET_FLOOR), and `_keep` drops that
        vertex; one vertex is its own minimizer, so it returns within
        `len(weights)` passes.
        """
        while True:
            affine = self.inverse @ self.inverse.sum(axis=0)
            affine /= affine.sum()
            lowest = affine.min()
            if lowest > 0.0:
                return affine
            if lowest >= -ACTIVE_SET_TOL:
                weights = np.clip(affine, 0.0, None)
                return self._keep(weights / weights.sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(affine < 0.0, weights / (weights - affine), np.inf)
            weights = weights + float(steps.min()) * (affine - weights)
            weights[weights < ACTIVE_SET_FLOOR] = 0.0
            weights = self._keep(weights)

    def _border(self, row: np.ndarray, dot: float) -> tuple[np.ndarray, float, float]:
        """A new row's column of R, the square of its diagonal entry of R,
        and its own entry of G; `dot` is its product with the target."""
        column = self.rows @ row - self.dots + (self.offset - dot)
        projected = column @ self.inverse
        corner = self.menus - 2.0 * dot + self.offset
        return projected, corner - float(projected @ projected), corner

    def _keep(self, weights: np.ndarray) -> np.ndarray:
        """Remove the vertices at weight 0; the weights of the others."""
        for j in np.flatnonzero(weights <= 0.0)[::-1]:
            self._remove(int(j))
        return weights[weights > 0.0]

    def _remove(self, j: int) -> None:
        """Drop vertex j: delete its column of R and rotate R back to
        triangular, applying each rotation's transpose to S's columns."""
        factor = np.delete(self.factor, j, axis=1)
        inverse = self.inverse
        for i in range(j, len(factor) - 1):
            a, b = factor[i, i], factor[i + 1, i]
            rotation = np.array([[a, b], [-b, a]]) / math.hypot(a, b)
            factor[i : i + 2, i:] = rotation @ factor[i : i + 2, i:]
            inverse[: i + 2, i : i + 2] = inverse[: i + 2, i : i + 2] @ rotation.T
        self.factor = factor[:-1]
        self.inverse = np.delete(inverse, j, axis=0)[:, :-1]
        del self.orders[j]
        keep = np.arange(len(self.dots)) != j
        self.rows = self.rows[keep]
        self.dots = self.dots[keep]


@dataclass(frozen=True)
class _FrankWolfeRun:
    """Where `_frank_wolfe` stopped: the active orders (positions, best
    first) and their weights, the point they mix to, its squared distance
    to the target, the last duality gap, and the squared distance at the
    start of each iteration."""

    orders: list[tuple[int, ...]]
    weights: np.ndarray
    point: np.ndarray
    squared_distance: float
    gap: float
    trace: tuple[float, ...]

    @property
    def hit_iteration_cap(self) -> bool:
        return self.gap > GAP_TOL


def _frank_wolfe(lattice: _LatticeCells, target: np.ndarray) -> _FrankWolfeRun:
    """Fully corrective Frank-Wolfe toward `target`, the cell values.

    Each step adds the vertex minimizing the linearized objective, found
    by a shortest path on the subset lattice (no order is enumerated),
    then re-solves the least-squares problem over the active vertices by
    Wolfe's minor cycles.  The start is the nearest vertex: every vertex
    has one cell per menu, hence the same norm, so it is the first order,
    in `all_orders` order, that maximizes v . target.  Stops at duality
    gap GAP_TOL or after MAX_FW_ITERATIONS iterations.
    """
    corral = _Corral(target, len(lattice.starts))  # one start per menu
    start, _ = lattice.cheapest(-target)
    weights = corral.enter(start, lattice.vertex(start), np.empty(0))
    weights = corral.descend(weights)
    gap = math.inf
    trace: list[float] = []
    for _ in range(MAX_FW_ITERATIONS):
        x = weights @ corral.rows
        offset = x - target
        trace.append(float(offset @ offset))
        grad = offset + offset
        best, least = lattice.cheapest(grad)
        gap = float(grad @ x) - least
        if gap <= GAP_TOL:
            break
        if best not in corral.orders:
            weights = corral.enter(best, lattice.vertex(best), weights)
        weights = corral.descend(weights)

    x = weights @ corral.rows
    offset = x - target
    return _FrankWolfeRun(
        corral.orders, weights, x, float(offset @ offset), gap, tuple(trace)
    )


def aru_distance(rho: StochasticChoice, space: AggregateSpace) -> DistanceResult:
    """Squared Euclidean distance from the data to the ARU polytope.

    Runs `_frank_wolfe` from the data's cell values.  Hitting the
    iteration cap (MAX_FW_ITERATIONS) is reported in the result, never
    silent.
    """
    lattice = _LatticeCells(space, rho.domain())
    run = _frank_wolfe(lattice, lattice.values(rho))
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
