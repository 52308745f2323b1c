"""The subset lattice of a ground set, and the kernels that walk it.

Both rationality notions are checked on this lattice.  A cell (A, k),
the choice of the id at position k from the menu A, sits at k * 2^n +
the bitmask of A's positions in a table of n * 2^n entries (`cell_index`).
On that table run the Möbius pass giving every Block-Marschak sum, the
split of their flow into chains, the shortest-path oracle over all
orders, and fully corrective Frank-Wolfe on top of it.  Nothing here
enumerates an order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AggChoiceError, IncompleteDomain
from .model import (
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    Menu,
    MenuCollectionFamily,
    StochasticChoice,
    _check_enumerable,
    nonempty_subsets,
)
from .tolerances import (
    ACTIVE_SET_FLOOR,
    ACTIVE_SET_TOL,
    AFFINE_TOL,
    GAP_TOL,
    ORDER_TIE_TOL,
    SUPPORT_FLOOR,
)

MAX_FW_ITERATIONS = 10_000


def cell_index(ground: Sequence[str], cells: list[tuple[Menu, str]]) -> np.ndarray:
    """Where each cell (A, k) sits in a lattice table over `ground`: at
    k * 2^n + the bitmask of A, with each id at its position in `ground`."""
    n = len(ground)
    bit = {a: 1 << k for k, a in enumerate(ground)}
    start = {a: k << n for k, a in enumerate(ground)}  # where each id's cells begin
    mask = {m: sum(map(bit.__getitem__, m)) for m in {m for m, _ in cells}}
    return np.array([start[a] | mask[m] for m, a in cells], int)


def bm_values(rho: StochasticChoice, space: AggregateSpace) -> np.ndarray:
    """Every Block-Marschak sum of a full atomic domain, in one Möbius pass.

    Entry (k, s) is ``bm_polynomial(rho, space, menu, space.atomic[k])``
    for the atomic menu that holds ``space.atomic[j]`` exactly when bit j
    of s is set, if it holds that id; the other entries mean nothing.
    Flattened, the entries are the table of `cell_index`.  The pass over
    bit b takes each set's values minus those of the set with b added, so
    after all n passes each entry is the alternating sum over its
    supersets.
    """
    atoms = space.atomic
    n = len(atoms)
    menus = nonempty_subsets(atoms)
    for menu in menus:
        if menu not in rho.table:
            raise IncompleteDomain(
                f"missing atomic menu {sorted(menu)} for the alternating sum"
            )
    cells = [(m, a) for m in menus for a in m]
    values = np.zeros((n, 2**n))
    values.flat[cell_index(atoms, cells)] = [rho.table[m][a] for m, a in cells]
    for b in range(n):
        view = values.reshape(n, -1, 2, 2**b)
        view[:, :, 0] -= view[:, :, 1]
    return values


def _bm_flow_chains(values: np.ndarray) -> list[tuple[tuple[int, ...], float]]:
    """Split the Block-Marschak flow into chains from the empty set up.

    The flow runs on the subset lattice of the n atomic ids: the edge
    from U to U + {k} carries the sum q(k, D) of the menu D = complement
    of U, the mass of orders that rank exactly U above k.  Sums below 0
    (within the axiom's slack) carry 0.  Each chain runs from the empty
    set to the full one along the edge with the largest remaining flow,
    ties to the lowest position; it takes the smallest flow on its way,
    which zeroes at least one edge, so there are at most n * 2^(n-1)
    chains.  A chain that reaches a node with no flow left (a node the
    clipping or rounding left short) is dropped.  Returns (positions,
    weight) pairs, best id first, without the chains at or below
    SUPPORT_FLOOR.
    """
    n = len(values)
    full = 2**n - 1
    flow = np.maximum(values, 0.0).tolist()
    chains = []
    while True:
        node, path = 0, []
        for _ in range(n):
            rest = full ^ node
            best = max(
                (k for k in range(n) if rest >> k & 1),
                key=lambda k: flow[k][rest],
            )
            path.append((best, rest))
            node |= 1 << best
        carried = [flow[k][s] for k, s in path]
        if carried[0] <= 0.0:
            return chains
        short = next((j for j, f in enumerate(carried) if f <= 0.0), n)
        weight = min(carried[:short])
        for k, s in path[:short]:
            flow[k][s] -= weight
        if short == n and weight > SUPPORT_FLOOR:
            chains.append((tuple(k for k, _ in path), weight))


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
        self.lattice = _lattice(n)
        self.index = cell_index(space.members, self.cells)
        self.ids = self.index >> n  # positions
        self.masks = self.index & ((1 << n) - 1)  # menus
        sizes = [len(m) for m in domain.menus]
        self.menu_of = np.repeat(np.arange(len(sizes)), sizes)  # each cell's menu
        self.starts = np.array([0, *itertools.accumulate(sizes[:-1])])  # first cells
        self.deviant = self.ids >= len(space.atomic)  # members: atomic ids first
        self.table = np.zeros(n << n)  # cell i at index[i]
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
