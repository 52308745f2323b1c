"""The two representation conditions that restore aggregate-level RUM.

A representation (preference distribution over underlying alternatives,
composition distribution) generates ARU-rational data whenever either

* the preferences are non-overlapping: each aggregate's underlying
  alternatives occupy a contiguous block of every support ranking, or
* the composition distribution is menu-independent: one unconditional
  joint distribution generates every per-menu distribution as a
  marginal.

Both conditions are properties of representations, not of datasets: the
same dataset may be generated by representations that satisfy them and
by representations that do not, so this module never infers a condition
from choice frequencies alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linprog
from .errors import GroundMismatch, NotMenuIndependent, TooLarge
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    Menu,
    PreferenceDistribution,
    _marginal,
    aru_evaluate,
    forward_evaluate,
    nonempty_subsets,
    verify_replay,
)
from .tolerances import CERTIFICATE_TOL, LP_TOL, MARGINAL_TOL, replay_tol

#: Joint atom cap for the menu-independence feasibility LP.
MAX_JOINT_ATOMS = 1_000_000


@dataclass(frozen=True)
class ConditionReport:
    holds: bool
    witnesses: tuple = ()

    def __post_init__(self):
        if self.holds != (len(self.witnesses) == 0):
            raise ValueError("holds flag must match emptiness of witnesses")


def is_non_overlapping(
    prefs: PreferenceDistribution, correspondence: AggregationCorrespondence
) -> ConditionReport:
    """Check the contiguous-block condition on every support ranking.

    A witness is a (ranking, aggregate, foreign id) triple: some id from
    outside the aggregate sits strictly between two of its members.
    """
    space = correspondence.space
    needed = set(correspondence.ground)
    if not needed <= set(prefs.ground):
        raise GroundMismatch("distribution must rank every underlying alternative")
    witnesses = []
    for order in prefs.support:
        for a in space.non_atomic:
            members = correspondence.underlying(a)
            positions = [order.rank(x) for x in members]
            lo, hi = min(positions), max(positions)
            for foreign in order.ranking[lo + 1 : hi]:
                if foreign not in members:
                    witnesses.append((order, a, foreign))
    return ConditionReport(holds=not witnesses, witnesses=tuple(witnesses))


def lift_aru_to_nonoverlapping(
    prefs_agg: PreferenceDistribution, correspondence: AggregationCorrespondence
) -> PreferenceDistribution:
    """Expand each aggregate-level ranking into a block ranking.

    Every aggregate is replaced by its underlying alternatives in the
    correspondence's fixed order, so the result is non-overlapping by
    construction and generates the same data under any composition
    distribution.
    """
    space = correspondence.space
    if prefs_agg.ground != frozenset(space.members):
        raise GroundMismatch("expected a distribution over the aggregates")
    weights: dict[LinearOrder, float] = {}
    for order, w in prefs_agg.items():
        ranking: list[str] = []
        for a in order.ranking:
            ranking.extend(correspondence.underlying(a))
        lifted = LinearOrder(tuple(ranking))
        weights[lifted] = weights.get(lifted, 0.0) + w
    return PreferenceDistribution(weights)


def _tuple_space(
    correspondence: AggregationCorrespondence,
    aggregates: tuple[str, ...],
    covered: set[str],
) -> list[tuple[frozenset[str], ...]]:
    """Composition profiles of `aggregates`; those not `covered` keep
    their full underlying set."""
    per_aggregate = []
    for a in aggregates:
        members = correspondence.underlying(a)
        if a not in covered:
            per_aggregate.append([frozenset(members)])
            continue
        per_aggregate.append(nonempty_subsets(members))
    return list(itertools.product(*per_aggregate))


def is_menu_independent(
    composition: CompositionDistribution,
    correspondence: AggregationCorrespondence,
    domain: ChoiceDomain,
) -> ConditionReport:
    """Does one unconditional joint distribution explain every menu?

    With a single non-atomic aggregate this is equality of the per-menu
    distributions; in general it is LP feasibility of a joint
    distribution over full composition profiles whose marginals match
    every observed menu (correlation across aggregates is allowed).
    Witnesses are (menu pair, tuple, mismatch) records from the pairwise
    necessary condition, or a single infeasibility record when the
    marginals are pairwise consistent but admit no joint distribution.
    """
    report, _ = _joint(composition, correspondence, domain)
    return report


def _composed_menus(
    composition: CompositionDistribution, space: AggregateSpace, domain: ChoiceDomain
) -> list[Menu]:
    """Domain menus that hold a non-atomic aggregate and have a composition."""
    composed = set(composition.menus())
    return [
        m for m in domain.menus if m & space.non_atomic_set and frozenset(m) in composed
    ]


def _joint(
    composition: CompositionDistribution,
    correspondence: AggregationCorrespondence,
    domain: ChoiceDomain,
) -> tuple[ConditionReport, dict[CompositionTuple, float] | None]:
    """The menu-independence verdict and, when it holds, a joint profile
    distribution whose marginals are every menu's distribution.

    Checks the menus pairwise first.  Once they agree, a menu holding
    every non-atomic aggregate is itself a joint; otherwise the joint
    comes from the feasibility LP, and aggregates in no menu keep their
    full underlying set.
    """
    space = correspondence.space
    menus = _composed_menus(composition, space, domain)

    witnesses = []
    for first, second in itertools.combinations(menus, 2):
        shared = first & second & space.non_atomic_set
        if not shared:
            continue
        shared = space.sort(shared)
        marg_a = _marginal(composition.for_menu(first), shared)
        marg_b = _marginal(composition.for_menu(second), shared)
        for t in sorted(
            set(marg_a) | set(marg_b), key=lambda t: repr(t.parts)
        ):
            gap = abs(marg_a.get(t, 0.0) - marg_b.get(t, 0.0))
            if gap > MARGINAL_TOL:
                witnesses.append(((first, second), t, gap))
    if witnesses:
        return ConditionReport(holds=False, witnesses=tuple(witnesses)), None

    full_menus = [m for m in menus if space.non_atomic_set <= m]
    if full_menus:
        return ConditionReport(holds=True), dict(composition.for_menu(full_menus[0]))
    profiles, result, support = _solve_joint(composition, correspondence, menus)
    if not result.feasible:
        witness = ("no-joint-distribution", None, result.residual)
        return ConditionReport(holds=False, witnesses=(witness,)), None
    joint = {
        CompositionTuple.of(dict(zip(space.non_atomic, profiles[j]))): w
        for j, w in support.items()
    }
    marginals = {
        m: _marginal(joint, space.sort(m & space.non_atomic_set)) for m in menus
    }
    verify_replay(marginals, composition.per_menu, CERTIFICATE_TOL, "joint composition")
    return ConditionReport(holds=True), joint


def _solve_joint(
    composition: CompositionDistribution,
    correspondence: AggregationCorrespondence,
    menus: list[Menu],
) -> tuple[
    list[tuple[frozenset[str], ...]], linprog.FeasibilityResult, dict[int, float]
]:
    """Feasibility LP for a joint profile distribution with the menus' marginals.

    One column per full composition profile (in `_tuple_space` order) and
    one row per (menu, marginal tuple).  An aggregate in no menu meets no
    row, so it is pinned to its full underlying set.  Returns the
    profiles with the result of `linprog.solve_mixture`.  Raises
    `TooLarge` when the profile space exceeds `MAX_JOINT_ATOMS`.
    """
    space = correspondence.space
    non_atomic = space.non_atomic
    covered = set().union(*menus) & space.non_atomic_set
    atoms = math.prod(
        2 ** len(correspondence.underlying(a)) - 1 for a in non_atomic if a in covered
    )
    if atoms > MAX_JOINT_ATOMS:
        raise TooLarge(f"joint composition space has {atoms} atoms")

    joint = _tuple_space(correspondence, non_atomic, covered)
    rows, rhs = [], []
    for menu in menus:
        present = space.sort(menu & space.non_atomic_set)
        positions = [non_atomic.index(a) for a in present]
        groups: dict[CompositionTuple, list[int]] = {}
        for j, profile in enumerate(joint):
            key = CompositionTuple.of(
                {a: profile[p] for a, p in zip(present, positions)}
            )
            groups.setdefault(key, []).append(j)
        dist = composition.for_menu(menu)
        # Rows in profile order, then any tuple no profile realizes.
        for key in [*groups, *(k for k in dist if k not in groups)]:
            row = np.zeros(len(joint), dtype=bool)
            row[groups.get(key, [])] = True
            rows.append(row)
            rhs.append(dist.get(key, 0.0))
    result, support = linprog.solve_mixture(
        np.array(rows).reshape(len(rows), len(joint)),
        np.array(rhs),
        LP_TOL,
    )
    return joint, result, support


def unconditional_joint(
    composition: CompositionDistribution,
    correspondence: AggregationCorrespondence,
    domain: ChoiceDomain,
) -> dict[CompositionTuple, float]:
    """A joint composition profile generating every per-menu distribution.

    When the menus agree pairwise and one of them holds every non-atomic
    aggregate, this is that menu's distribution; otherwise it is
    extracted from the feasibility LP.  Aggregates that appear in no
    menu default to their full underlying set.  Raises
    `NotMenuIndependent` when no joint exists.
    """
    report, joint = _joint(composition, correspondence, domain)
    if not report.holds:
        raise NotMenuIndependent("no unconditional joint distribution exists")
    return joint


def collapse_to_aru(
    prefs: PreferenceDistribution,
    correspondence: AggregationCorrespondence,
    composition: CompositionDistribution,
    domain: ChoiceDomain,
) -> PreferenceDistribution:
    """Project a menu-independent representation onto the aggregates.

    For each full composition profile and each support ranking, the
    induced aggregate ranking puts a above b exactly when the best
    realized member of a beats every realized member of b; profile and
    ranking weights multiply.  The result reproduces the representation's
    forward evaluation as an aggregate-level random utility model
    (verified internally before returning).
    """
    space = correspondence.space
    report, joint = _joint(composition, correspondence, domain)
    if not report.holds:
        raise NotMenuIndependent(
            "composition distribution is not menu-independent"
        )

    ground = correspondence.ground
    position = {x: i for i, x in enumerate(ground)}
    ranks = prefs.ranks(ground)
    weights: dict[LinearOrder, float] = {}
    for profile, pw in joint.items():
        realized = [correspondence.underlying(a) for a in space.atomic]
        realized += [profile.part(a) for a in space.non_atomic]
        # Row a holds each order's best rank among aggregate a's realized ids.
        best_rank = np.array(
            [ranks[[position[x] for x in ids]].min(axis=0) for ids in realized]
        )
        for column, ow in zip(best_rank.T, prefs.weights.values()):
            induced = LinearOrder(tuple(space.members[k] for k in column.argsort()))
            weights[induced] = weights.get(induced, 0.0) + pw * ow

    collapsed = PreferenceDistribution(weights)
    produced = forward_evaluate(prefs, correspondence, composition, domain)
    replayed = aru_evaluate(collapsed, domain)
    # Each collapsed cell combines its menu's tuples: those of the
    # joint's marginal and those of the menu's own distribution.
    terms = len(joint) + max(map(len, composition.per_menu.values()), default=0)
    verify_replay(
        replayed.table, produced.table, replay_tol(terms), "collapsed distribution"
    )
    return collapsed
