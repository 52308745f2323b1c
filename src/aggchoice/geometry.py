"""Polytope-level computations on stochastic choice data.

The ARU polytope is the convex hull of the deterministic tables induced
by linear orders on the aggregates; the RU polytope is the much larger
hull of menu-effect vertices.  This module computes Euclidean distance
to the ARU polytope (fully corrective Frank-Wolfe over enumerated
vertices), provides the linear minimization oracle over RU vertices,
sparsifies RU-rational data into uniform mixtures of few vertices, and
builds the explicit datasets witnessing the strictness of the
fixed-composition-size nesting.
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
    all_orders,  # noqa: F401  (bench/tracing.py patches this import site)
    forward_evaluate,
    nth_order,
    order_events,
    order_winners,
    verify_replay,
    vertex_choice,
)
from .rationalize import Rationalization
from .tolerances import (
    ACTIVE_SET_FLOOR,
    ACTIVE_SET_TOL,
    ANCHOR_TOL,
    GAP_TOL,
    GRID_REPLAY_TOL,
    GRID_TOL,
    PROB_TOL,
    grid_steps,
)

MAX_FW_ITERATIONS = 10_000

#: Upper bound on the number of composition candidates the grid oracle
#: will enumerate before refusing.
GRID_BUDGET = 5_000_000

#: Step of the grid oracle's composition weights.
GRID_RESOLUTION = 0.02


def _cell_vector(rho: StochasticChoice, cells: list[tuple[Menu, str]]) -> np.ndarray:
    return np.array([rho.prob(m, a) for m, a in cells])


def _cell_table(
    space: AggregateSpace, cells: list[tuple[Menu, str]], vector: np.ndarray
) -> StochasticChoice:
    """The table holding `vector` at its `cells`, the inverse of `_cell_vector`."""
    table: dict[Menu, dict[str, float]] = {}
    for (menu, a), p in zip(cells, vector):
        table.setdefault(menu, {})[a] = float(p)
    return StochasticChoice(space, table)


@dataclass(frozen=True)
class DistanceResult:
    """Projection of a dataset onto the ARU polytope."""

    squared_distance: float
    mixture: Mapping[LinearOrder, float]
    projection: StochasticChoice
    duality_gap: float
    iterations: int
    hit_iteration_cap: bool
    objective_trace: tuple[float, ...] = ()


def _simplex_least_squares(
    vertices: np.ndarray, target: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """Minimize ||target - w @ vertices||^2 over the probability simplex.

    Active-set iteration: solve the equality-constrained problem on the
    current support, and when a coordinate would go negative, step to
    the boundary and drop it.  Deterministic and exact at this scale.
    """
    k = len(vertices)
    w = start.copy()
    support = list(range(k))
    for _ in range(4 * k + 8):
        sub = vertices[support]
        gram = 2.0 * (sub @ sub.T)
        kkt = np.zeros((len(support) + 1, len(support) + 1))
        kkt[: len(support), : len(support)] = gram
        kkt[: len(support), -1] = 1.0
        kkt[-1, : len(support)] = 1.0
        rhs = np.concatenate([2.0 * (sub @ target), [1.0]])
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        u = sol[: len(support)]
        if (u >= -ACTIVE_SET_TOL).all():
            w = np.zeros(k)
            w[support] = np.clip(u, 0.0, None)
            total = w.sum()
            return w / total if total > 0 else start
        w_s = w[support]
        shrink = u < w_s
        with np.errstate(divide="ignore", invalid="ignore"):
            steps = np.where(shrink, w_s / (w_s - u), np.inf)
        steps[u >= 0] = np.inf
        alpha = float(steps.min())
        w_s = w_s + alpha * (u - w_s)
        w_s[w_s < ACTIVE_SET_FLOOR] = 0.0
        w = np.zeros(k)
        w[support] = w_s
        support = [i for i in range(k) if w[i] > 0.0]
        if not support:
            return start
    return w


def aru_distance(rho: StochasticChoice, space: AggregateSpace) -> DistanceResult:
    """Squared Euclidean distance from the data to the ARU polytope.

    Fully corrective Frank-Wolfe over the enumerated vertices: each step
    adds the vertex minimizing the linearized objective, then re-solves
    the least-squares problem exactly over the active vertex set.  Stops
    at duality gap GAP_TOL; hitting the iteration cap (MAX_FW_ITERATIONS)
    is reported in the result, never silent.
    """
    cells = rho.domain().cells()
    # One row per vertex: the Frank-Wolfe sums below depend on this layout.
    vertices = np.asarray(
        order_events(space.members, cells).T, dtype=float, order="C"
    )
    target = _cell_vector(rho, cells)

    # The nearest vertex starts; its distances are taken over blocks of
    # rows, so no second vertex-sized array is built.
    step = max(1, linprog.BLOCK_BYTES // vertices[0].nbytes)
    nearest = np.concatenate(
        [
            ((vertices[lo : lo + step] - target) ** 2).sum(axis=1)
            for lo in range(0, len(vertices), step)
        ]
    )
    start = int(np.argmin(nearest))
    active = [start]
    weights = np.array([1.0])
    gap = math.inf
    iterations = 0
    trace: list[float] = []
    for iterations in range(1, MAX_FW_ITERATIONS + 1):
        x = weights @ vertices[active]
        trace.append(float(((x - target) ** 2).sum()))
        grad = 2.0 * (x - target)
        scores = vertices @ grad
        best = int(np.argmin(scores))
        gap = float(grad @ x - scores[best])
        if gap <= GAP_TOL:
            break
        if best not in active:
            active.append(best)
            weights = np.concatenate([weights, [0.0]])
        weights = _simplex_least_squares(vertices[active], target, weights)
        keep = weights > 0.0
        active = [a for a, k in zip(active, keep) if k]
        weights = weights[keep]

    x = weights @ vertices[active]
    projection = _cell_table(space, cells, x)
    mixture = {
        nth_order(space.members, a): float(w) for a, w in zip(active, weights)
    }
    return DistanceResult(
        squared_distance=float(((x - target) ** 2).sum()),
        mixture=mixture,
        projection=projection,
        duality_gap=gap,
        iterations=iterations,
        hit_iteration_cap=gap > GAP_TOL,
        objective_trace=tuple(trace),
    )


GradientMap = Mapping[tuple[Menu, str], float]


def ru_vertex_lmo(
    gradient: GradientMap, space: AggregateSpace, domain: ChoiceDomain
) -> tuple[LinearOrder, MenuCollectionFamily]:
    """Menu-effect vertex minimizing an inner product with the gradient.

    For a fixed order the family is unconstrained across menus, so the
    minimization decomposes per menu into "follow the order" versus
    "deviate to some non-atomic member".  Ties prefer following, then
    the earliest aggregate in construction order; ties across orders
    keep the first order enumerated.

    The best deviation on a menu does not depend on the order, so one
    pass over the winner table scores every order.  Totals accumulate
    menu by menu, so each order's sum adds the same floats in the same
    order as a per-order loop would.
    """

    def coeff(menu: Menu, a: str) -> float:
        return gradient.get((menu, a), 0.0)

    ground = space.members
    menus = domain.menus
    winners = order_winners(ground, menus)
    total = np.zeros(len(winners))
    best_deviation: list[tuple[float, str | None]] = []
    for j, menu in enumerate(menus):
        value, target = math.inf, None
        for a in space.sort(menu & space.non_atomic_set):
            if coeff(menu, a) < value:
                value, target = coeff(menu, a), a
        best_deviation.append((value, target))
        follow = np.array([coeff(menu, a) for a in ground])
        total += np.minimum(follow[winners[:, j]], value)
    index = int(np.argmin(total))
    deviations: dict[str, list[Menu]] = {}
    for menu, pick, (value, target) in zip(menus, winners[index], best_deviation):
        if value < coeff(menu, ground[pick]):
            deviations.setdefault(target, []).append(menu)
    family = MenuCollectionFamily(
        {a: frozenset(menus) for a, menus in deviations.items()}
    )
    return nth_order(ground, index), family


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
    cells = domain.cells()
    target = _cell_vector(rho, cells)
    dim = float(len(domain.menus))

    def lmo_vector(grad: np.ndarray) -> tuple:
        gradient = {cell: float(g) for cell, g in zip(cells, grad)}
        order, family = ru_vertex_lmo(gradient, space, domain)
        table = vertex_choice(order, family, domain)
        return order, family, _cell_vector(table, cells)

    chosen: list[tuple[LinearOrder, MenuCollectionFamily]] = []
    vectors: list[np.ndarray] = []
    running = np.zeros_like(target)
    for t in range(k):
        # argmin_v ||(running + v)/(t+1) - target||^2 over vertices reduces
        # to a linear oracle because ||v||^2 is constant across vertices.
        order, family, v = lmo_vector(running - (t + 1.0) * target)
        chosen.append((order, family))
        vectors.append(v)
        running = running + v

    x = np.zeros_like(target)
    for t, v in enumerate(vectors):
        step = 2.0 / (t + 2.0)
        x = (1.0 - step) * x + step * v

    uniform = running / k
    approximation = _cell_table(space, cells, uniform)
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


@dataclass(frozen=True)
class _MenuPlan:
    """Search plan for one outside-aggregate menu."""

    menu: Menu
    candidates: tuple  # per candidate: (weights_by_subset, extra LP rows)


def _subset_list(ids: tuple[str, ...]) -> list[frozenset[str]]:
    out = []
    for r in range(1, len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            out.append(frozenset(combo))
    return out


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
    weights cancel from their equations), so such menus contribute only
    one subset choice; remaining menus are gridded at GRID_RESOLUTION
    (small supports only, by the Caratheodory bound on mixture size).
    `found` returns a verified witness; `not_found` certifies only that
    no candidate in the searched family is feasible.
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
    subsets = _subset_list(synthetic)
    # Every realized set is a subset of the ground (at most 6 ids).
    realizable = _subset_list(ground)
    winners = order_winners(ground, realizable)
    column = {s: j for j, s in enumerate(realizable)}

    def event_row(realized: frozenset[str], y: str) -> np.ndarray:
        """1.0 for each order whose best element of `realized` is y."""
        return (winners[:, column[realized]] == ground.index(y)).astype(float)

    # Static rows: atomic menus pin the atomic marginals of every order.
    atomic_rows: list[np.ndarray] = []
    atomic_rhs: list[float] = []
    observed_atomic = [m for m in rho.menus if m <= space.atomic_set]
    for menu in observed_atomic:
        for a in space.sort(menu):
            atomic_rows.append(event_row(menu, a))
            atomic_rhs.append(rho.prob(menu, a))

    plans: list[_MenuPlan] = []
    mixed_menus = [m for m in rho.menus if outside in m]
    for menu in mixed_menus:
        atoms = menu & space.atomic_set
        if not atoms:
            # Composition is irrelevant when only the outside aggregate
            # is present; fix it to the full set.
            full = frozenset(synthetic)
            plans.append(
                _MenuPlan(menu, (({full: 1.0}, (), ()),))
            )
            continue
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

        def per_subset_rows(
            s: frozenset[str],
        ) -> tuple[tuple[np.ndarray, float], ...]:
            realized = atoms | s
            rows = []
            for y, kind in kinds.items():
                if kind == "zero":
                    rows.append((event_row(realized, y), 0.0))
                elif kind == "one":
                    rows.append((event_row(realized, y), 1.0))
                elif kind == "anchor":
                    diff = event_row(realized, y) - event_row(frozenset(atoms), y)
                    rows.append((diff, 0.0))
            return tuple(rows)

        if not value_cells:
            candidates = []
            for s in subsets:
                candidates.append(({s: 1.0}, per_subset_rows(s), ()))
            plans.append(_MenuPlan(menu, tuple(candidates)))
            continue

        # Value menu: enumerate small supports with gridded weights; the
        # mixture rows couple the weights with the order distribution.
        max_support = min(len(value_cells) + 1, len(subsets))
        candidates = []
        for size in range(1, max_support + 1):
            for support in itertools.combinations(subsets, size):
                for weights in _interior_grid(size, steps):
                    lam = dict(zip(support, weights))
                    fixed_rows = tuple(
                        item for s in support for item in per_subset_rows(s)
                    )
                    mixture_rows = []
                    for y in value_cells:
                        row = sum(
                            w * event_row(atoms | s, y) for s, w in lam.items()
                        )
                        mixture_rows.append((row, targets[y]))
                    candidates.append((lam, fixed_rows, tuple(mixture_rows)))
        plans.append(_MenuPlan(menu, tuple(candidates)))

    total = 1
    for plan in plans:
        total *= max(len(plan.candidates), 1)
        if total > GRID_BUDGET:
            raise TooLarge(
                f"candidate space exceeds the oracle budget ({GRID_BUDGET})"
            )

    # Depth-first search, cheapest plans first, with zero-propagation
    # pruning before each feasibility LP.
    plans.sort(key=lambda p: (len(p.candidates), space.menu_key(p.menu)))
    n_orders = len(winners)
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

    base_rows = list(zip(atomic_rows, atomic_rhs))
    assignment: dict[Menu, dict[frozenset[str], float]] = {}

    def dfs(level: int, rows: list) -> dict[int, float] | None:
        """The support of the first feasible leaf below, from its own solve."""
        nonlocal checked
        plan = plans[level]
        for lam, fixed_rows, mixture_rows in plan.candidates:
            checked += 1
            new_rows = rows + list(fixed_rows) + list(mixture_rows)
            result = solve(new_rows)
            if result is None:
                continue
            assignment[plan.menu] = lam
            if level + 1 < len(plans):
                result = dfs(level + 1, new_rows)
            if result is not None:
                return result
            del assignment[plan.menu]
        return None

    support = dfs(0, base_rows) if plans else solve(base_rows)
    if support is None:
        return GridOracleResult(False, None, checked)

    prefs = PreferenceDistribution(
        {nth_order(ground, i): w for i, w in support.items()}
    )
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
