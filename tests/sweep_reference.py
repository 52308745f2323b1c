"""The sweep through table objects: the reference for the array route.

`simulation._World.measure` validates a batch's softmax rows as arrays
and feeds the fit and Frank-Wolfe from them.  This is the route it
replaced, kept as it was to check that each point gets these floats bit
for bit and each failing point the same error: every point's rows
become a validated `StochasticChoice`, its three markets a second one
built from the first one's rows, and the likelihood reads each table's
shares with `prob`.
"""

from __future__ import annotations

import math

import numpy as np

from aggchoice import simulation
from aggchoice.errors import NoConvergence
from aggchoice.lattice import _frank_wolfe
from aggchoice.model import StochasticChoice
from aggchoice.simulation import MARKET_MENUS, SimulatedPoint, bias


class TableLikelihood:
    """`simulation._Likelihood` reading its shares from tables."""

    def __init__(self, tables, params):
        index = {a: i for i, a in enumerate(params)}
        self.size = len(params)
        self.menus = []
        for menu in tables[0].menus:
            items = sorted(menu)
            shares = np.array([[t.prob(menu, a) for a in items] for t in tables])
            slots = [index.get(a) for a in items]
            free = [(i, slot) for i, slot in enumerate(slots) if slot is not None]
            self.menus.append((shares, slots, free))

    def __call__(self, values, which):
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


def fit_tables(tables):
    """`simulation._fit_lockstep` over tables on the same menus."""
    pinned = simulation.PINNED
    free = simulation._check_identified(tables[0].menus, pinned)
    if not free:
        return [{pinned: 0.0} for _ in tables]
    likelihood = TableLikelihood(tables, free)
    active = np.arange(len(tables))
    values = np.zeros((len(tables), len(free)))
    current, grad, hess = likelihood(values, active)
    for _ in range(simulation.MAX_NEWTON_ITERATIONS):
        active = active[~(np.abs(grad[active]).max(axis=1) <= simulation.GRADIENT_TOL)]
        if not active.size:
            return [{**dict(zip(free, row)), pinned: 0.0} for row in values.tolist()]
        step = simulation._newton_steps(-hess[active], grad[active])
        scale = np.ones(len(active))
        waiting = np.arange(len(active))
        for _ in range(simulation.MAX_STEP_HALVINGS):
            at = active[waiting]
            trial = values[at] + scale[waiting, None] * step[waiting]
            evaluated, trial_grad, trial_hess = likelihood(trial, at)
            kept = evaluated >= current[at] - simulation.ASCENT_SLACK
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


def points(world, grid, measures):
    """`world.points(grid, measures)`, each point's tables built and
    validated one by one."""
    utilities = [u for u, _ in grid]
    realized = [world.realized(triples) for _, triples in grid]
    columns = {}
    rows = []
    for k, menu in enumerate(world.domain.menus):
        sets = [r[k] for r in realized]
        row = simulation._menu_rows(utilities, world.owner, menu, sets, columns)
        rows.append((menu, {a: probs.tolist() for a, probs in row.items()}))
    reduced = [
        StochasticChoice(
            world.space,
            {menu: {a: probs[i] for a, probs in row.items()} for menu, row in rows},
        )
        for i in range(len(grid))
    ]
    estimates = biases = distances = [None] * len(grid)
    if measures in ("bias", "both"):
        markets = [
            StochasticChoice(world.space, {m: rho.row(m) for m in MARKET_MENUS})
            for rho in reduced
        ]
        estimates = fit_tables(markets)
        biases = [bias(e, u) for e, u in zip(estimates, utilities)]
    if measures in ("distance", "both"):
        targets = np.array([world.lattice.values(rho) for rho in reduced])
        runs = _frank_wolfe(world.lattice, targets)
        if any(run.hit_iteration_cap for run in runs):
            raise NoConvergence(
                "Frank-Wolfe hit the iteration cap before the duality-gap tolerance"
            )
        distances = [run.squared_distance for run in runs]
    return [
        SimulatedPoint(*point) for point in zip(reduced, estimates, biases, distances)
    ]
