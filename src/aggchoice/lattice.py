"""The subset lattice of a ground set, and the kernels that walk it.

Both rationality notions are checked on this lattice.  A cell (A, k),
the choice of the id at position k from the menu A, sits at k * 2^n +
the bitmask of A's positions in a table of n * 2^n entries (`cell_index`).
On that table run the Möbius pass giving every Block-Marschak sum, the
split of their flow into chains, the shortest-path oracle over all
orders, and fully corrective Frank-Wolfe on top of it.  The oracle and
Frank-Wolfe take a stack of cost rows or targets and run them in
lockstep, each with the floats it gets alone.  Nothing here enumerates
an order.
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
    best first, so it is an order.  The sets are numbered level by level:
    level L holds every set U of L ids, in ascending bitmask order.  Each
    set U has one edge (U, k) per id k outside U, in ascending k.  Edge
    (U, k) collects the cells (A, k), written k * 2^n + the bitmask of A,
    over every A inside the complement of U that holds k: the menus whose
    best id the edge places.  Edges are laid out by set and id, (U, k)
    at U's number times n plus k; an id inside U has no edge, and its
    place gathers the single entry -1.
    """

    n: int
    gather: np.ndarray  # every place's cells, place by place
    starts: np.ndarray  # where each place's cells begin in `gather`
    spans: tuple[tuple[int, int], ...]  # per level: its sets' numbers
    # Per level below n - 1, per set and id k: the place of U | {k} in
    # the next level (0 for the ids inside U).
    after: tuple[np.ndarray, ...]
    ahead: tuple[tuple[int, ...], ...]  # per set and id k: the number of U | {k}
    next_place: np.ndarray  # `ahead` flattened: at place U * n + k, U | {k}
    last: np.ndarray  # the places of the edges of the sets of n - 1 ids


@functools.cache
def _lattice(n: int) -> _Lattice:
    """The subset lattice on n ids: n * 2^(n - 1) edges, 1024 at n = 8.

    Built on first use and cached per n, like `model._permutation_table`.
    """
    by_level: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_level[bin(mask).count("1")].append(mask)
    number: dict[int, int] = {}
    spans = []
    for sets in by_level:
        first = len(number)
        spans.append((first, first + len(sets)))
        number.update((mask, first + row) for row, mask in enumerate(sets))
    gather: list[int] = []
    starts: list[int] = []
    ahead = [number[mask | 1 << k] for mask in number for k in range(n)]
    full = (1 << n) - 1
    for mask in number:
        for k in range(n):
            starts.append(len(gather))
            if mask >> k & 1:
                gather.append(-1)
                continue
            rest = full ^ mask ^ (1 << k)
            subset = rest
            while True:
                gather.append(k << n | subset | 1 << k)
                if not subset:
                    break
                subset = (subset - 1) & rest
    after = []
    for (lo, hi), (below, _) in zip(spans[: n - 1], spans[1:]):
        places = np.array(ahead[lo * n : hi * n]).reshape(-1, n) - below
        after.append(np.where(places >= 0, places, 0))
    return _Lattice(
        n,
        np.array(gather),
        np.array(starts),
        tuple(spans),
        tuple(after),
        tuple(tuple(ahead[place * n : place * n + n]) for place in range(1 << n)),
        np.array(ahead),
        np.array([number[full ^ 1 << k] * n + k for k in reversed(range(n))]),
    )


class _LatticeCells:
    """A domain's cells, addressed from the subset lattice.

    Positions are those of `space.members`, and a menu is the bitmask of
    its ids' positions; cells are in `ChoiceDomain.cells` order.  The
    lattice, like every order enumeration, is capped at
    MAX_ENUMERATION_GROUND ids.
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
        # Where each lattice place's entries sit in a cost row extended by
        # 0.0 and +inf: a cell at its own place, an entry outside the
        # domain at the 0.0, and -1, no edge, at the +inf.
        place = np.full((n << n) + 1, len(self.cells))
        place[self.index] = np.arange(len(self.cells))
        place[-1] = len(self.cells) + 1
        self.gather = place[self.lattice.gather]

    def cheapest(self, costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each row of `costs`, the first order, in `all_orders` order,
        picking the cheapest cells.

        An order picks each menu's best id, so the cost of cell (A, k),
        `costs[p, i]` for cell i, is paid on the lattice edge that places
        k first among A's ids.  Edge (U, k) therefore costs f_k(complement
        of U), the sum of the costs of cells (A, k) over menus A inside
        the complement: a subset-sum (zeta) transform of the costs.
        Dynamic programming gives the least cost from each set to the
        full one.  Walking from the empty set and taking at each step the
        lowest position whose edge stays on a least path gives the first
        optimum in `all_orders` order.  Path costs within ORDER_TIE_TOL
        times the total absolute cost of each other count as equal, so a
        tie of the exact sums is not broken by rounding.  Returns each
        row's order, a row of positions best first, and its least total.

        All rows run in one pass, each with the floats a pass of its own
        gives: the segment sums of `np.add.reduceat` and the row sums run
        along each row of a C-ordered array as they run along a 1-D one,
        and the rest is elementwise, minima and comparisons.  The walks
        take one step of every row at a time; a single row walks in
        Python, which is quicker for one.
        """
        lattice, n = self.lattice, self.n
        costs = np.ascontiguousarray(costs)
        count, cells = costs.shape
        extended = np.empty((count, cells + 2))
        extended[:, :cells] = costs
        extended[:, cells:] = 0.0, np.inf
        # By set and id: each edge's cost (+inf for the ids inside the
        # set), then in place its cost plus the least cost from where it
        # leads, level by level from the full set down.
        edges = np.add.reduceat(
            extended.take(self.gather, axis=1), lattice.starts, axis=1
        )
        paths = edges.reshape(count, 1 << n, n)
        least = edges.take(lattice.last, axis=1)  # sets of n - 1 ids: one edge each
        leasts = [least]
        for (lo, hi), after in zip(lattice.spans[n - 2 :: -1], lattice.after[::-1]):
            level = paths[:, lo:hi]
            level += least.take(after, axis=1)
            least = np.minimum.reduce(level, axis=2)
            leasts.append(least)
        # Each set's step: its first id whose path stays within the slack
        # of the set's least.  Then each row's walk from the empty set.
        slack = ORDER_TIE_TOL * np.add.reduce(np.abs(costs), axis=1)
        bound = np.concatenate(leasts[::-1], axis=1) + slack[:, None]
        steps = (paths[:, :-1] <= bound[:, :, None]).argmax(axis=2)
        if count == 1:
            row, order, at = steps[0].tolist(), [], 0
            for _ in range(n):
                order.append(k := row[at])
                at = lattice.ahead[at][k]
            return np.array([order]), least[:, 0]
        orders = np.empty((count, n), int)
        rows = np.arange(0, steps.size, steps.shape[1])  # each row's empty set
        at = np.zeros(count, int)
        for i in range(n):
            orders[:, i] = k = steps.take(rows + at)
            at = lattice.next_place.take(at * n + k)
        return orders, least[:, 0]

    def vertices(self, orders: np.ndarray) -> np.ndarray:
        """The 0/1 rows of the cells each order, a row of positions best
        first, picks.

        Cell (A, k) is picked when none of A's ids comes before k, that
        is, when A's mask shares no bit with the mask of the ids placed
        before k: the OR of the bits before k in the order.
        """
        orders = np.asarray(orders)
        if len(orders) == 1:  # quicker in Python for one
            before, placed = [0] * self.n, 0
            for k in orders[0].tolist():
                before[k] = placed
                placed |= 1 << k
            before = np.array([before])
        else:
            bits = np.left_shift(1, orders)
            before = np.empty_like(orders)
            placed = np.bitwise_or.accumulate(bits, axis=1) ^ bits
            before[np.arange(len(orders))[:, None], orders] = placed
        return ((self.masks & before.take(self.ids, axis=1)) == 0).astype(float)

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
        orders, _ = self.cheapest(np.minimum(costs, best[self.menu_of])[None])
        row = self.vertices(orders)[0]
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
        order = LinearOrder(tuple(self.space.members[k] for k in orders[0].tolist()))
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's product a[i] . b[i], as one stacked `np.matmul`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvecs(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each product a[i] @ v[i] of a matrix and a row, stacked."""
    return (a @ v[:, :, None])[:, :, 0]


def _vecmats(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Each product v[i] @ a[i] of a row and a matrix, stacked."""
    return (v[:, None, :] @ a)[:, 0]


def _select(members: Sequence[int] | np.ndarray) -> slice | np.ndarray:
    """Ascending indices as a slice when they are consecutive, so that
    what they pick from a stack is a view, not a copy."""
    first = int(members[0])
    if int(members[-1]) - first == len(members) - 1:
        return slice(first, first + len(members))
    return np.asarray(members)


class _Corral:
    """The active vertices of Frank-Wolfe for a stack of targets, each
    point's kept affinely independent.

    Each active vertex is held as a 0/1 row over the cells.  With
    p = vertex - target, the nearest point of the active points' affine
    hull has weights proportional to G^-1 1, where G = 1 + p_i . p_j is
    their augmented Gram matrix (Wolfe 1976).  G = R^T R is kept as its
    triangular factor R and the inverse S of R: a vertex entering borders
    both, and one leaving is removed by Givens rotations, each in O(k^2)
    (Lawson and Hanson 1974).  Products of two rows are counts of shared
    cells.

    Point p's vertices fill the first `sizes[p]` places of its slab in
    capacity buffers (orders, rows, their dots with the target, weights,
    R and S), so a vertex enters or leaves without a copy of the others.
    An order is a row of positions, best first; the order places past a
    point's size hold -1, so they match no order.  The methods take a
    set of points, as ascending indices, and step them together: each
    product is one stacked `np.matmul` over the points of one
    active-set size k, on views of their slabs when they are
    consecutive.  numpy makes for each item of a stack the cblas call
    that the product of that item alone makes, with the same shape and
    the same unit stride along its rows, so each point gets the floats
    of a run of its own; only a matrix's row stride (its leading
    dimension) can differ, and the kernels' arithmetic does not depend
    on it.  No matrix-matrix product runs except the 2 x 2 rotations:
    OpenBLAS splits larger ones by thread count, which changes their
    rounding, so the result would depend on the thread count.
    """

    def __init__(self, targets: np.ndarray, menus: int, n: int):
        count, cells = targets.shape
        self.targets = targets
        self.offsets = 1.0 + _dots(targets, targets)
        self.menus = menus
        self.sizes = np.zeros(count, int)
        self.orders = np.empty((count, 0, n), int)
        self.order_item = np.dtype((np.void, self.orders.itemsize * n))
        self.rows = np.empty((count, 0, cells))
        self.dots = np.empty((count, 0))  # each row's product with the target
        self.weights = np.empty((count, 0))
        self.factor = np.empty((count, 0, 0))  # R
        self.inverse = np.empty((count, 0, 0))  # S = R^-1
        # n ids have n! orders, so that many vertices at most.
        self._reserve(min(8, math.factorial(n)))

    def _reserve(self, size: int) -> None:
        """Room for `size` vertices a point, at least doubling the room."""
        capacity = self.dots.shape[1]
        if size <= capacity:
            return
        capacity = max(size, 2 * capacity)
        count, cells = self.targets.shape
        orders = np.full((count, capacity, self.orders.shape[2]), -1)
        orders[:, : self.orders.shape[1]] = self.orders
        self.orders = orders
        for name, shape in (
            ("rows", (count, capacity, cells)),
            ("dots", (count, capacity)),
            ("weights", (count, capacity)),
            ("factor", (count, capacity, capacity)),
            ("inverse", (count, capacity, capacity)),
        ):
            old = getattr(self, name)
            new = np.empty(shape)
            new[tuple(map(slice, old.shape))] = old
            setattr(self, name, new)

    def _groups(self, points: np.ndarray):
        """The points by active-set size: each size k, the points' slabs
        (a slice when they are consecutive) and their places in `points`."""
        if len(points) == 1:
            p = int(points[0])
            yield int(self.sizes[p]), slice(p, p + 1), slice(None)
            return
        sizes = self.sizes[points]
        distinct = set(sizes.tolist())
        if len(distinct) == 1:
            yield distinct.pop(), _select(points), slice(None)
            return
        for k in sorted(distinct):
            at = np.flatnonzero(sizes == k)
            yield k, _select(points[at]), at

    def mixtures(self, points: np.ndarray) -> np.ndarray:
        """Each point's weighted mix of its active vertices' rows."""
        mixed = [
            (at, _vecmats(self.weights[slabs, :k], self.rows[slabs, :k]))
            for k, slabs, at in self._groups(points)
        ]
        if len(mixed) == 1:
            return mixed[0][1]
        out = np.empty((len(points), self.targets.shape[1]))
        for at, rows in mixed:
            out[at] = rows
        return out

    def lacks(self, points: np.ndarray, orders: np.ndarray) -> np.ndarray:
        """Whether `orders[i]` is missing from the active orders of
        `points[i]`.

        Each order is compared whole: its row of positions is viewed as
        one opaque item of its bytes, `order_item`.
        """
        held = self.orders if len(points) == len(self.orders) else self.orders[points]
        held = held.view(self.order_item)[:, :, 0]
        return (held != orders.view(self.order_item)).all(axis=1)

    def enter(self, points: np.ndarray, orders: np.ndarray, rows: np.ndarray) -> None:
        """Add to each point its vertex: `orders[i]`, of 0/1 row `rows[i]`,
        to `points[i]`.

        The new vertex starts at weight 0.  One that lies in the active
        vertices' affine hull (the square of its new diagonal entry of R
        at most AFFINE_TOL times its entry of G) would make G singular.
        It is exchanged in instead, as a simplex pivot would: it is the
        affine combination beta = G^-1 (its column of G) of the active
        points, so moving weight theta onto it and theta * beta off them
        keeps the point; theta stops where the first active vertex
        reaches weight 0 and leaves.
        """
        every = len(points) == len(self.targets)
        dots = _dots(rows, self.targets if every else self.targets[points])
        for k, slabs, at in self._groups(points):
            order, row, dot = orders[at], rows[at], dots[at]
            projected, pivot, corner = self._border(slabs, k, row, dot)
            hull = pivot <= AFFINE_TOL * corner
            if hull.any():
                turn = np.arange(len(points))[at][hull]
                turned = _select(points[turn])
                beta = _matvecs(self.inverse[turned, :k, :k], projected[hull])
                weights = self.weights[turned, :k]
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(beta > 0.0, weights / beta, math.inf)
                leave = ratio.argmin(axis=1)
                theta = ratio[np.arange(len(ratio)), leave]
                self.weights[turned, :k] = weights - theta[:, None] * beta
                self._remove(points[turn].tolist(), leave.tolist())
                order, row, dot = orders[turn], rows[turn], dots[turn]
                again, pivot_again, _ = self._border(turned, k - 1, row, dot)
                self._append(
                    turned, k - 1, again, pivot_again, order, row, dot, theta
                )
                if hull.all():
                    continue
                at = np.arange(len(points))[at][~hull]
                slabs, order, row, dot = (
                    _select(points[at]), orders[at], rows[at], dots[at]
                )
                projected, pivot = projected[~hull], pivot[~hull]
            self._append(slabs, k, projected, pivot, order, row, dot, 0.0)

    def _border(
        self, slabs: slice | np.ndarray, k: int, rows: np.ndarray, dots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """New rows' columns of R, the squares of their diagonal entries of
        R, and their own entries of G, for points of k vertices; `dots`
        holds each row's product with its point's target."""
        offsets = self.offsets[slabs]
        column = _matvecs(self.rows[slabs, :k], rows)
        column = column - self.dots[slabs, :k] + (offsets - dots)[:, None]
        projected = _vecmats(column, self.inverse[slabs, :k, :k])
        corner = self.menus - 2.0 * dots + offsets
        return projected, corner - _dots(projected, projected), corner

    def _append(
        self,
        slabs: slice | np.ndarray,
        k: int,
        projected: np.ndarray,
        pivot: np.ndarray,
        orders: np.ndarray,
        rows: np.ndarray,
        dots: np.ndarray,
        theta: np.ndarray | float,
    ) -> None:
        """Border R and S with each new vertex's column, as the points'
        vertex k, at weight `theta`."""
        self._reserve(k + 1)
        diagonal = np.array([math.sqrt(v) for v in pivot.tolist()])
        self.factor[slabs, :k, k] = projected  # below the diagonal is never read
        self.factor[slabs, k, k] = diagonal
        solved = _matvecs(self.inverse[slabs, :k, :k], projected)
        self.inverse[slabs, :k, k] = solved / -diagonal[:, None]
        self.inverse[slabs, k, :k] = 0.0
        self.inverse[slabs, k, k] = 1.0 / diagonal
        self.orders[slabs, k] = orders
        self.rows[slabs, k] = rows
        self.dots[slabs, k] = dots
        self.weights[slabs, k] = theta
        self.sizes[slabs] = k + 1

    def descend(self, points: np.ndarray) -> None:
        """Minimize each point's distance over its active vertices' convex
        hull.

        Wolfe's minor cycle: go to the affine minimizer when its weights
        are all above -ACTIVE_SET_TOL; otherwise step toward it until a
        weight reaches 0 (or falls below ACTIVE_SET_FLOOR), drop the
        vertices left at 0, and repeat.  Vertices at weight 0 leave.

        A pass that does not return zeroes its blocking weight (up to
        rounding, far below ACTIVE_SET_FLOOR), and `_keep` drops that
        vertex; one vertex is its own minimizer, so each point returns
        within as many passes as it has vertices.
        """
        while points.size:
            touched: list[int] = []
            stepping: list[int] = []
            for k, slabs, at in self._groups(points):
                inverse = self.inverse[slabs, :k, :k]
                affine = _matvecs(inverse, np.add.reduce(inverse, axis=1))
                affine /= np.add.reduce(affine, axis=1, keepdims=True)
                if not np.minimum.reduce(affine, axis=None) > 0.0:
                    members = points[at].tolist()
                    near, far = [], []
                    lowest = np.minimum.reduce(affine, axis=1).tolist()
                    for i, low in enumerate(lowest):
                        if not low > 0.0:
                            (near if low >= -ACTIVE_SET_TOL else far).append(i)
                    if near:
                        clipped = np.clip(affine[near], 0.0, None)
                        total = np.add.reduce(clipped, axis=1, keepdims=True)
                        affine[near] = clipped / total
                    if far:
                        weights, toward = self.weights[slabs, :k][far], affine[far]
                        with np.errstate(divide="ignore", invalid="ignore"):
                            steps = np.where(
                                toward < 0.0, weights / (weights - toward), np.inf
                            )
                        step = np.minimum.reduce(steps, axis=1)[:, None]
                        weights = weights + step * (toward - weights)
                        weights[weights < ACTIVE_SET_FLOOR] = 0.0
                        affine[far] = weights
                        stepping += [members[i] for i in far]
                    touched += [members[i] for i in near + far]
                self.weights[slabs, :k] = affine
            if not touched:
                return
            self._keep(sorted(touched))
            points = np.array(sorted(stepping), int)

    def _keep(self, points: list[int]) -> None:
        """Remove each point's vertices at weight 0, the last first; each
        removal shifts the weights after it, so the others' stay."""
        drops = {}
        for p in points:
            zero = (self.weights[p, : self.sizes[p]] <= 0.0).tolist()
            drops[p] = [j for j in reversed(range(len(zero))) if zero[j]]
        for rank in range(max(map(len, drops.values()))):
            who = [p for p in points if len(drops[p]) > rank]
            self._remove(who, [drops[p][rank] for p in who])

    def _remove(self, points: list[int], drops: list[int]) -> None:
        """Drop vertex `drops[i]` of each `points[i]`: delete its column of
        R and rotate R back to triangular, applying each rotation's
        transpose to S's columns, then delete its row of S and its order,
        row, dot and weight."""
        groups: dict[tuple[int, int], list[int]] = {}
        for p, j in zip(points, drops):
            groups.setdefault((int(self.sizes[p]), j), []).append(p)
        for (k, j), members in groups.items():
            slabs = _select(members)
            # The points' R and S: views, or copies written back at the end.
            factor, inverse = self.factor[slabs, :k, :k], self.inverse[slabs, :k, :k]
            factor[:, :, j : k - 1] = factor[:, :, j + 1 :]
            for i in range(j, k - 1):
                rotation = np.array(
                    [
                        [[a / h, b / h], [-b / h, a / h]]
                        for a, b in factor[:, i : i + 2, i].tolist()
                        for h in (math.hypot(a, b),)
                    ]
                )
                band = factor[:, i : i + 2, i : k - 1]
                factor[:, i : i + 2, i : k - 1] = rotation @ band
                band = inverse[:, : i + 2, i : i + 2]
                inverse[:, : i + 2, i : i + 2] = band @ rotation.transpose(0, 2, 1)
            inverse[:, j : k - 1] = inverse[:, j + 1 :]
            if not isinstance(slabs, slice):
                self.factor[slabs, :k, :k] = factor
                self.inverse[slabs, :k, :k] = inverse
            for buffer in (self.orders, self.rows, self.dots, self.weights):
                buffer[slabs, j : k - 1] = buffer[slabs, j + 1 : k]
            self.orders[slabs, k - 1] = -1
            self.sizes[slabs] = k - 1


@dataclass(frozen=True)
class _FrankWolfeRun:
    """Where `_frank_wolfe` stopped for one target: the active orders
    (positions, best first) and their weights, the point they mix to,
    its squared distance to the target, the last duality gap, and the
    squared distance at the start of each iteration."""

    orders: list[tuple[int, ...]]
    weights: np.ndarray
    point: np.ndarray
    squared_distance: float
    gap: float
    trace: tuple[float, ...]

    @property
    def hit_iteration_cap(self) -> bool:
        return self.gap > GAP_TOL


def _frank_wolfe(lattice: _LatticeCells, targets: np.ndarray) -> list[_FrankWolfeRun]:
    """Fully corrective Frank-Wolfe toward each row of `targets`, a
    table's cell values.

    Each step adds the vertex minimizing the linearized objective, found
    by a shortest path on the subset lattice (no order is enumerated),
    then re-solves the least-squares problem over the active vertices by
    Wolfe's minor cycles.  The start is the nearest vertex: every vertex
    has one cell per menu, hence the same norm, so it is the first order,
    in `all_orders` order, that maximizes v . target.  Stops at duality
    gap GAP_TOL or after MAX_FW_ITERATIONS iterations.

    The rows run in lockstep: one oracle pass and one corral step serve
    every row still running.  Each row keeps its own iterations, vertex
    exchanges and removals, and gets the floats a run of its own gets;
    one that reaches the iteration cap stops there, as the others go on.
    """
    targets = np.ascontiguousarray(targets, dtype=float)
    count = len(targets)
    corral = _Corral(targets, len(lattice.starts), lattice.n)  # a start per menu
    running = np.arange(count)
    starts, _ = lattice.cheapest(-targets)
    corral.enter(running, starts, lattice.vertices(starts))
    corral.descend(running)
    gaps = np.full(count, math.inf)  # each running row's last gap
    traces: list[list[float]] = [[] for _ in range(count)]
    runs: list[_FrankWolfeRun] = [None] * count  # type: ignore[list-item]
    for iteration in range(MAX_FW_ITERATIONS + 1):
        x = corral.mixtures(running)
        offset = x - (targets if len(running) == count else targets[running])
        squared = _dots(offset, offset)
        ids = running.tolist()
        if iteration < MAX_FW_ITERATIONS:
            for p, value in zip(ids, squared.tolist()):
                traces[p].append(value)
            grad = offset + offset
            best, least = lattice.cheapest(grad)
            gaps = _dots(grad, x) - least
            done = [gap <= GAP_TOL for gap in gaps.tolist()]
        else:
            done = [True] * len(running)
        if any(done):
            for i in itertools.compress(range(len(done)), done):
                p = ids[i]
                size = corral.sizes[p]
                runs[p] = _FrankWolfeRun(
                    list(map(tuple, corral.orders[p, :size].tolist())),
                    corral.weights[p, :size].copy(),
                    x[i],
                    float(squared[i]),
                    float(gaps[i]),
                    tuple(traces[p]),
                )
            if all(done):
                break
            going = [not stop for stop in done]
            running, gaps, best = running[going], gaps[going], best[going]
        new = corral.lacks(running, best)
        if new.all():
            corral.enter(running, best, lattice.vertices(best))
        elif new.any():
            entering = best[new]
            corral.enter(running[new], entering, lattice.vertices(entering))
        corral.descend(running)
    return runs
