"""Seeded instance generator for the benchmark.

Every instance is drawn from ``numpy.random.default_rng([seed, index])``,
so one seed always yields the same tables, and an instance does not
depend on how many others were drawn before it.  Menu and order
enumeration follow the library's construction order, so the written
manifests are byte-identical for a given seed.

Instance classes:

* ARU-rational order mixtures: random orders over all aggregates with
  random weights, evaluated by the standard random-utility map.
* Menu-effect-vertex mixtures: random RU vertices (an order plus
  disjoint deviation collections), which are RU-rational by
  construction.  With ``force_non_aru`` the mixture also violates
  regularity on a fixed pair of menus, which proves by construction
  that it is not ARU-rational.
* The nesting counterexample of ``build_nesting_counterexample``.
* A domain-closed partial domain: a random subset of the atomic menus,
  every mixed menu whose atomic part is in it, and the menus of
  non-atomic aggregates only.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from aggchoice import serialize
from aggchoice.geometry import build_nesting_counterexample
from aggchoice.model import (
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    MenuCollectionFamily,
    PreferenceDistribution,
    StochasticChoice,
    aru_evaluate,
)


#: Chance that a vertex deviates to a given non-atomic aggregate on a menu.
DEVIATION_RATE = 0.4

#: Chance that a partial domain keeps a non-singleton atomic menu.
KEEP_MENU = 0.6


@dataclass(frozen=True)
class Instance:
    """One generated dataset and the verdicts it has by construction."""

    name: str
    space: AggregateSpace
    rho: StochasticChoice
    aru_rational: bool | None  # None: not known by construction

    def manifest_text(self) -> str:
        return serialize.to_json(serialize.Manifest(space=self.space, choice=self.rho))


def make_space(n_atomic: int, n_non_atomic: int) -> AggregateSpace:
    return AggregateSpace(
        atomic=tuple(f"x{i}" for i in range(n_atomic)),
        non_atomic=tuple(f"a{i}" for i in range(n_non_atomic)),
    )


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _weights(rng: np.random.Generator, count: int) -> np.ndarray:
    weights = rng.random(count) + 0.05
    return weights / weights.sum()


def aru_order_mixture(name: str, space: AggregateSpace, seed: int, index: int) -> Instance:
    """Random positive weight on every order over the aggregates.

    ARU-rational and in the polytope's interior, which keeps the phase-1
    pivot count close across seeds (sparse mixtures vary far more).
    """
    rng = _rng(seed, index)
    orders = [LinearOrder(p) for p in itertools.permutations(space.members)]
    weights = _weights(rng, len(orders))
    prefs = PreferenceDistribution({o: float(w) for o, w in zip(orders, weights)})
    rho = aru_evaluate(prefs, ChoiceDomain.full(space))
    return Instance(name, space, rho, aru_rational=True)


def vertex_mixture(
    name: str,
    space: AggregateSpace,
    seed: int,
    index: int,
    n_vertices: int | None,
    force_non_aru: bool = False,
    domain: ChoiceDomain | None = None,
) -> Instance:
    """Random mixture of menu-effect vertices: RU-rational.

    `n_vertices=None` takes one vertex per order of the atomic ids, with
    the non-atomic ids inserted at random positions, so the atomic part
    of the table is in the interior of its polytope.

    With `force_non_aru`, every order ranks the first atomic id above the
    first non-atomic one and no vertex deviates on that pair's menu, so
    the aggregate never wins it; vertex 0 deviates to the aggregate on
    the grand menu.  Its probability then rises from the pair to the
    grand menu, a regularity violation no ARU model can produce.
    """
    if force_non_aru and (not space.atomic or not space.non_atomic):
        raise ValueError("force_non_aru needs an atomic and a non-atomic id")
    rng = _rng(seed, index)
    domain = ChoiceDomain.full(space) if domain is None else domain
    members = list(space.members)
    if force_non_aru:
        low, high = space.non_atomic[0], space.atomic[0]
        pair, grand = frozenset({low, high}), frozenset(members)
    if n_vertices is None:
        rankings = []
        for atomic_order in itertools.permutations(space.atomic):
            ranking = list(atomic_order)
            for a in space.non_atomic:
                ranking.insert(int(rng.integers(len(ranking) + 1)), a)
            rankings.append(ranking)
    else:
        rankings = [[members[i] for i in rng.permutation(len(members))] for _ in range(n_vertices)]
    choices = []  # per vertex: (menu, winner), the table vertex_choice builds
    for v, ranking in enumerate(rankings):
        taken: set = set()
        per_aggregate = {}
        for a in space.non_atomic:
            chosen = [
                m
                for m in domain.menus
                if a in m and m not in taken and rng.random() < DEVIATION_RATE
            ]
            if force_non_aru:
                chosen = [m for m in chosen if m != pair]
                if v == 0 and a == low and grand not in chosen:
                    chosen.append(grand)
            taken.update(chosen)
            per_aggregate[a] = frozenset(chosen)
        if force_non_aru and ranking.index(low) < ranking.index(high):
            i, j = ranking.index(low), ranking.index(high)
            ranking[i], ranking[j] = ranking[j], ranking[i]
        order = LinearOrder(tuple(ranking))
        family = MenuCollectionFamily(per_aggregate)
        choices.append(
            [(m, family.deviation_target(m) or order.best(m)) for m in domain.menus]
        )
    mass = defaultdict(list)
    for w, chosen in zip(_weights(rng, len(choices)), choices):
        for cell in chosen:
            mass[cell].append(float(w))
    rho = StochasticChoice(
        space,
        {
            m: {a: math.fsum(mass.get((m, a), ())) for a in space.sort(m)}
            for m in domain.menus
        },
    )
    if force_non_aru and rho.prob(grand, low) <= rho.prob(pair, low):
        raise RuntimeError("forced instance lacks its regularity violation")
    return Instance(name, space, rho, aru_rational=False if force_non_aru else None)


def nesting_counterexample(name: str, n_atomic: int) -> Instance:
    """`build_nesting_counterexample` with one outside aggregate."""
    space = make_space(n_atomic, 1)
    rho = build_nesting_counterexample(space)
    return Instance(name, space, rho, aru_rational=False)


def closed_partial_domain(space: AggregateSpace, seed: int, index: int) -> ChoiceDomain:
    """A domain-closed domain missing some atomic menus.

    Keeps each atomic menu with probability KEEP_MENU (the singletons always
    stay), adds every mixed menu whose atomic part was kept, and every
    menu of non-atomic aggregates only.
    """
    rng = _rng(seed, index)
    full = ChoiceDomain.full(space)
    atomic_menus = [m for m in full.menus if m <= space.atomic_set]
    kept = {m for m in atomic_menus if len(m) == 1 or rng.random() < KEEP_MENU}
    if len(kept) == len(atomic_menus):
        kept.discard(atomic_menus[-1])
    menus = [
        m for m in full.menus
        if not (m & space.atomic_set) or (m & space.atomic_set) in kept
    ]
    return ChoiceDomain(space, tuple(menus))
