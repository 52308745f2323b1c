import math

import numpy as np
import pytest

from aggchoice import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    MenuCollectionFamily,
    PreferenceDistribution,
    StochasticChoice,
    vertex_choice,
)
from aggchoice.tolerances import AXIOM_TOL


@pytest.fixture
def three_space():
    return AggregateSpace(atomic=("x", "y"), non_atomic=("a0",))


@pytest.fixture
def three_domain(three_space):
    return ChoiceDomain.full(three_space)


@pytest.fixture
def outside_corr():
    space = AggregateSpace(("x",), ("a0",))
    return AggregationCorrespondence.identity_atomic(space, {"a0": ("z", "w")})


def random_order(space, rng) -> LinearOrder:
    return LinearOrder(tuple(rng.permutation(space.members)))


def random_vertex(space, domain, rng, deviation_rate=0.4):
    """A random menu-effect vertex: random order, random disjoint families."""
    order = random_order(space, rng)
    taken: set = set()
    per_aggregate = {}
    for a in space.non_atomic:
        chosen = [
            m
            for m in domain.menus
            if a in m and m not in taken and rng.random() < deviation_rate
        ]
        taken.update(chosen)
        per_aggregate[a] = frozenset(chosen)
    return vertex_choice(order, MenuCollectionFamily(per_aggregate), domain)


def random_vertex_mixture(space, domain, rng, max_vertices=10):
    """Convex mixture of random vertices (hence RU-rational by construction)."""
    count = int(rng.integers(1, max_vertices + 1))
    vertices = [random_vertex(space, domain, rng) for _ in range(count)]
    weights = rng.random(count) + 0.05
    weights /= weights.sum()
    table = {
        menu: {
            a: math.fsum(w * v.prob(menu, a) for w, v in zip(weights, vertices))
            for a in menu
        }
        for menu in domain.menus
    }
    return StochasticChoice(space, table)


def random_preferences(ground, rng, support=4) -> PreferenceDistribution:
    orders = {}
    for _ in range(support):
        orders[LinearOrder(tuple(rng.permutation(list(ground))))] = None
    weights = rng.random(len(orders)) + 0.1
    weights /= weights.sum()
    return PreferenceDistribution(
        {o: float(w) for o, w in zip(orders, weights)}
    )


def random_composition(correspondence, domain, rng) -> CompositionDistribution:
    """Independent random per-menu compositions (menu-dependent in general)."""
    space = correspondence.space
    per_menu = {}
    for menu in domain.menus:
        present = space.sort(frozenset(menu) & space.non_atomic_set)
        if not present:
            continue
        atoms = {}
        for combo in _tuple_combos(correspondence, present):
            atoms[combo] = rng.random() + 0.01
        total = sum(atoms.values())
        per_menu[frozenset(menu)] = {
            t: w / total for t, w in atoms.items()
        }
    return CompositionDistribution(per_menu)


def _tuple_combos(correspondence, aggregates):
    import itertools

    per_agg = []
    for a in aggregates:
        members = correspondence.underlying(a)
        subsets = [
            frozenset(c)
            for r in range(1, len(members) + 1)
            for c in itertools.combinations(members, r)
        ]
        per_agg.append([(a, s) for s in subsets])
    for profile in itertools.product(*per_agg):
        yield CompositionTuple.of(dict(profile))


def random_table(space, domain, rng) -> StochasticChoice:
    """Unconstrained random choice table (usually violates every axiom)."""
    table = {}
    for menu in domain.menus:
        w = rng.random(len(menu)) + 1e-9
        w /= w.sum()
        table[menu] = dict(zip(space.sort(menu), (float(v) for v in w)))
    return StochasticChoice(space, table)


def pushed_flow_table(space, rng, push, outside_share) -> StochasticChoice:
    """Full-domain data whose Block-Marschak sums reach about -push * AXIOM_TOL.

    Starts from the flow of a few random orders of the atomic ids, then
    moves push * AXIOM_TOL of mass from random chains onto the first
    order's chain, so edges the orders never use carry down to about
    -push * AXIOM_TOL.  A mixed menu scales its atomic row by
    1 - outside_share and gives the rest to the space's one non-atomic
    aggregate.
    """
    n = len(space.atomic)
    (outside,) = space.non_atomic
    full = 2**n - 1

    def add_chain(flow, ranking, weight):
        node = 0
        for k in ranking:
            flow[k, full ^ node] += weight
            node |= 1 << k

    flow = np.zeros((n, 2**n))
    orders = [rng.permutation(n) for _ in range(int(rng.integers(1, 5)))]
    for ranking in orders:
        add_chain(flow, ranking, 1 / len(orders))
    moves = int(rng.integers(1, 2 * n))
    for _ in range(moves):
        add_chain(flow, rng.permutation(n), -push * AXIOM_TOL / moves)
        add_chain(flow, orders[0], push * AXIOM_TOL / moves)
    for b in range(n):  # back from flow values to choice probabilities
        view = flow.reshape(n, -1, 2, 2**b)
        view[:, :, 0] += view[:, :, 1]
    table = {}
    for menu in ChoiceDomain.full(space).menus:
        if menu == {outside}:
            table[menu] = {outside: 1.0}
            continue
        s = sum(1 << space.index(a) for a in menu if a != outside)
        row = {a: max(flow[space.index(a), s], 0.0) for a in menu if a != outside}
        if outside in menu:
            share = 1 - outside_share
            row = {a: share * p for a, p in row.items()} | {outside: outside_share}
        total = math.fsum(row.values())
        table[menu] = {a: p / total for a, p in row.items()}
    return StochasticChoice(space, table)
