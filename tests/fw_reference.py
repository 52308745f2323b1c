"""Frank-Wolfe one target at a time: the reference for the lockstep run.

`lattice._frank_wolfe` runs a stack of targets in lockstep.  This is the
solo run it replaced, one oracle call, corral and numpy product per
target, kept as it was to check that each point of a stack gets these
floats bit for bit.  Its oracle walks the lattice level by level in
Python, as the solo oracle did.  It reads the iteration cap
`lattice.MAX_FW_ITERATIONS` at call time, so a patched cap holds for
both runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from aggchoice import lattice as lattice_module
from aggchoice.lattice import _FrankWolfeRun, _LatticeCells
from aggchoice.tolerances import (
    ACTIVE_SET_FLOOR,
    ACTIVE_SET_TOL,
    AFFINE_TOL,
    GAP_TOL,
    ORDER_TIE_TOL,
)


@functools.cache
def solo_lattice(n: int):
    """The subset lattice's edges as the solo oracle walked them: every
    edge's cells and where they begin, and per level its edges' slice of
    the edge totals and, per (set, free id), the row of U | {k} within the
    next level; per set its row within its level and its free ids."""
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
    return np.array(gather), np.array(starts), levels, rows, free


def cheapest(cells: _LatticeCells, costs: np.ndarray) -> tuple[tuple[int, ...], float]:
    """`_LatticeCells.cheapest` of one cost row: the first order of least
    cost, as positions best first, and the least total."""
    n = cells.n
    gather, starts, levels, rows, free = solo_lattice(n)
    table = np.zeros(n << n)
    table[cells.index] = costs
    totals = np.add.reduceat(table[gather], starts)
    (top, _), *rest = [
        (totals[lo:hi].reshape(after.shape), after)
        for lo, hi, after in reversed(levels)
    ]
    least = top[:, 0]
    for level, after in rest:
        level += least[after]
        least = level.min(axis=1)
    values = totals.tolist()
    slack = ORDER_TIE_TOL * float(np.abs(costs).sum())
    order, placed = [], 0
    for lo, _, _ in levels:
        choices = free[placed]
        start = lo + rows[placed] * len(choices)
        totals_here = values[start : start + len(choices)]
        bound = min(totals_here) + slack
        for k, total in zip(choices, totals_here):
            if total <= bound:
                break
        order.append(k)
        placed |= 1 << k
    return tuple(order), float(least[0])


def vertex(cells: _LatticeCells, order: tuple[int, ...]) -> np.ndarray:
    """The 0/1 row of the cells `order` (positions, best first) picks."""
    before = [0] * cells.n
    placed = 0
    for k in order:
        before[k] = placed
        placed |= 1 << k
    return ((cells.masks & np.array(before)[cells.ids]) == 0).astype(float)


class Corral:
    """The active vertices of one Frank-Wolfe run, kept affinely
    independent, with R and S = R^-1 of their augmented Gram matrix
    rebuilt on every entry and removal (see `lattice._Corral`).
    `exchanges` counts the vertices that entered by an exchange."""

    def __init__(self, target: np.ndarray, menus: int):
        self.target = target
        self.offset = 1.0 + float(target @ target)
        self.menus = menus
        self.orders: list[tuple[int, ...]] = []
        self.rows = np.empty((0, len(target)))
        self.dots = np.empty(0)
        self.factor = np.empty((0, 0))
        self.inverse = np.empty((0, 0))
        self.exchanges = 0

    def enter(
        self, order: tuple[int, ...], row: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        dot = float(row @ self.target)
        projected, pivot, corner = self._border(row, dot)
        theta = 0.0
        if pivot <= AFFINE_TOL * corner:
            self.exchanges += 1
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
        column = self.rows @ row - self.dots + (self.offset - dot)
        projected = column @ self.inverse
        corner = self.menus - 2.0 * dot + self.offset
        return projected, corner - float(projected @ projected), corner

    def _keep(self, weights: np.ndarray) -> np.ndarray:
        for j in np.flatnonzero(weights <= 0.0)[::-1]:
            self._remove(int(j))
        return weights[weights > 0.0]

    def _remove(self, j: int) -> None:
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


def frank_wolfe(
    cells: _LatticeCells, target: np.ndarray
) -> tuple[_FrankWolfeRun, Corral]:
    """One target's fully corrective Frank-Wolfe run, and its corral."""
    corral = Corral(target, len(cells.starts))
    start, _ = cheapest(cells, -target)
    weights = corral.enter(start, vertex(cells, start), np.empty(0))
    weights = corral.descend(weights)
    gap = math.inf
    trace: list[float] = []
    for _ in range(lattice_module.MAX_FW_ITERATIONS):
        x = weights @ corral.rows
        offset = x - target
        trace.append(float(offset @ offset))
        grad = offset + offset
        best, least = cheapest(cells, grad)
        gap = float(grad @ x) - least
        if gap <= GAP_TOL:
            break
        if best not in corral.orders:
            weights = corral.enter(best, vertex(cells, best), weights)
        weights = corral.descend(weights)

    x = weights @ corral.rows
    offset = x - target
    run = _FrankWolfeRun(
        corral.orders, weights, x, float(offset @ offset), gap, tuple(trace)
    )
    return run, corral
