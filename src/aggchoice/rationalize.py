"""Constructive rationalization of axiom-passing data.

Given data that passes limited monotonicity and partial RU-rationality,
builds an explicit witness (preference distribution over synthetic
underlying alternatives, aggregation correspondence, per-menu
composition distribution) whose forward evaluation reproduces the data.

Two constructions are available.  The `multi` variant works for any
number of non-atomic aggregates and gives each one |atomic| + 2
underlying alternatives: one "blocker" per atomic alternative placed
immediately above it in every extended ranking, plus a top and a bottom
element below all atomics.  The `outside_option` variant needs a single
non-atomic aggregate and gets away with |atomic| + 1 alternatives
(blockers plus a bottom element).

Per menu, the composition distribution is built by a mass-splitting
recursion: start all mass on the bottom tuple scaled by the largest
ratio of mixed-menu to atomic-menu probability, then peel mass onto
tuples that add one blocker at a time, in increasing-ratio order, so
each step fixes one atomic alternative's choice probability without
disturbing the ones already matched.  A final mixture across the menu's
non-atomic aggregates splits the residual mass among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .axioms import AxiomReport, check_limited_monotonicity, check_partial_ru
from .errors import AxiomViolated, GroundMismatch, VariantUnavailable
from .model import (
    AggregateSpace,
    AggregationCorrespondence,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    Menu,
    PreferenceDistribution,
    StochasticChoice,
    forward_evaluate,
    rum_prob,
    verify_replay,
)
from .tolerances import AXIOM_TOL, CERTIFICATE_TOL, PROB_TOL, flow_tol, replay_tol
from .tolerances import VERIFY_TOL  # noqa: F401  (importable from here)

VARIANTS = ("multi", "outside_option")


def blocker_id(aggregate: str, atomic: str) -> str:
    """Synthetic underlying alternative sitting just above an atomic one."""
    return f"{aggregate}::{atomic}"


def top_id(aggregate: str) -> str:
    return f"{aggregate}::hi"


def bottom_id(aggregate: str) -> str:
    return f"{aggregate}::lo"


@dataclass(frozen=True)
class Rationalization:
    """A verified witness for RU-rationality of a dataset."""

    prefs: PreferenceDistribution
    correspondence: AggregationCorrespondence
    composition: CompositionDistribution
    metadata: Mapping[str, object] = field(default_factory=dict)
    residual: float = 0.0


def extend_preferences(
    atomic_prefs: PreferenceDistribution,
    space: AggregateSpace,
    variant: str = "multi",
) -> tuple[AggregationCorrespondence, PreferenceDistribution]:
    """Lift an atomic-level distribution to the synthetic underlying set.

    Each support ranking over the atomic aggregates extends to a ranking
    of all underlying alternatives: every atomic alternative keeps its
    relative position, each non-atomic aggregate's blocker for it sits
    immediately above it (non-atomic aggregates in construction order),
    and the top/bottom elements fill the tail.  Weights carry over
    unchanged, so restricting any extended ranking back to the atomic
    ids recovers the original ranking.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "outside_option" and len(space.non_atomic) != 1:
        raise VariantUnavailable(
            "outside_option construction needs exactly one non-atomic aggregate"
        )
    if not space.non_atomic:
        raise VariantUnavailable("nothing to extend without non-atomic aggregates")
    if atomic_prefs.ground != space.atomic_set:
        raise GroundMismatch("atomic distribution must rank exactly the atomic ids")

    correspondence = _synthetic_correspondence(space, variant)
    tail: list[str] = []
    if variant == "multi":
        tail.extend(top_id(a) for a in space.non_atomic)
    tail.extend(bottom_id(a) for a in space.non_atomic)

    weights: dict[LinearOrder, float] = {}
    for order, w in atomic_prefs.items():
        ranking: list[str] = []
        for y in order.ranking:
            ranking.extend(blocker_id(a, y) for a in space.non_atomic)
            ranking.append(y)
        ranking.extend(tail)
        weights[LinearOrder(tuple(ranking))] = w
    return correspondence, PreferenceDistribution(weights)


def _synthetic_correspondence(
    space: AggregateSpace, variant: str
) -> AggregationCorrespondence:
    images: dict[str, tuple[str, ...]] = {}
    for a in space.non_atomic:
        ids = [blocker_id(a, y) for y in space.atomic]
        if variant == "multi":
            ids.append(top_id(a))
        ids.append(bottom_id(a))
        images[a] = tuple(ids)
    return AggregationCorrespondence.identity_atomic(space, images)


def _base_part(aggregate: str, variant: str) -> frozenset[str]:
    """Seed of the mass-splitting chain for the deviating aggregate."""
    if variant == "multi":
        return frozenset({top_id(aggregate)})
    return frozenset({bottom_id(aggregate)})


def _chain_for_aggregate(
    aggregate: str,
    others: tuple[str, ...],
    space: AggregateSpace,
    correspondence: AggregationCorrespondence,
    targets: dict[str, float],
    anchors: dict[str, float],
    variant: str,
) -> dict[CompositionTuple, float]:
    """One aggregate's composition chain matching all atomic targets.

    Returns a distribution whose forward evaluation gives every atomic
    alternative its target probability and routes all residual mass to
    `aggregate`.
    """
    rest_parts = {b: frozenset({bottom_id(b)}) for b in others}

    def tup(part: frozenset[str]) -> CompositionTuple:
        return CompositionTuple.of({aggregate: part, **rest_parts})

    active: list[str] = []
    for y in space.sort(targets):
        # Limited monotonicity's test, with its absolute slack.
        if anchors[y] < targets[y] - AXIOM_TOL:
            raise AxiomViolated(
                f"mixed-menu probability of {y!r} ({targets[y]!r}) exceeds "
                f"its atomic-menu probability ({anchors[y]!r})"
            )
        if anchors[y] > 0.0:
            active.append(y)

    ratios = {y: min(targets[y] / anchors[y], 1.0) for y in active}
    out: dict[CompositionTuple, float] = {}
    if not active:
        r0 = 0.0
    else:
        top_ratio = max(ratios.values())
        leader = next(y for y in space.sort(active) if ratios[y] == top_ratio)
        r0 = top_ratio
        rest = sorted(
            (y for y in active if y != leader),
            key=lambda y: (ratios[y], space.index(y)),
        )
        part = _base_part(aggregate, variant)
        if r0 > 0.0:
            scaled = [ratios[y] / r0 for y in rest]
            prev = 0.0
            for y, c in zip(rest, scaled):
                weight = (c - prev) * r0
                if weight > 0.0:
                    out[tup(part)] = out.get(tup(part), 0.0) + weight
                part = part | {blocker_id(aggregate, y)}
                prev = c
            final = (1.0 - prev) * r0
            if final > 0.0:
                out[tup(part)] = out.get(tup(part), 0.0) + final

    full_weight = 1.0 - r0
    if full_weight > 0.0:
        full = frozenset(correspondence.underlying(aggregate))
        out[tup(full)] = out.get(tup(full), 0.0) + full_weight
    return out


def build_lambda_for_menu(
    rho: StochasticChoice,
    atomic_part: Menu,
    non_atomic_part: Menu,
    prefs: PreferenceDistribution,
    correspondence: AggregationCorrespondence,
    variant: str = "multi",
) -> dict[CompositionTuple, float]:
    """Composition distribution for one mixed menu.

    `atomic_part` and `non_atomic_part` partition the menu.  Anchor
    probabilities for the atomic alternatives default to the observed
    atomic-menu row when that menu is in the data, and to the
    probabilities implied by `prefs` otherwise; the construction is
    exact whenever the anchors match the extension's atomic marginals.
    """
    space = correspondence.space
    atoms = frozenset(atomic_part)
    extras = space.sort(non_atomic_part)
    if not extras:
        raise ValueError("menu must contain a non-atomic aggregate")
    menu = atoms | frozenset(extras)

    if not atoms:
        if len(extras) == 1:
            only = extras[0]
            return {CompositionTuple.of({only: {bottom_id(only)}}): 1.0}
        shares = {a: rho.prob(menu, a) for a in extras}
        out: dict[CompositionTuple, float] = {}
        for a in extras:
            if shares[a] <= 0.0:
                continue
            others = tuple(b for b in extras if b != a)
            chain = _chain_for_aggregate(
                a, others, space, correspondence, {}, {}, variant
            )
            for t, w in chain.items():
                out[t] = out.get(t, 0.0) + shares[a] * w
        return out

    if atoms in rho.table:
        anchors = {y: rho.prob(atoms, y) for y in atoms}
    else:
        anchors = {y: rum_prob(prefs, atoms, y) for y in atoms}
    targets = {y: rho.prob(menu, y) for y in atoms}

    residual = math.fsum(rho.prob(menu, a) for a in extras)
    if residual <= PROB_TOL:
        # Aggregates absorb nothing: every atomic equation holds with
        # equality, so the all-bottom tuple reproduces the menu exactly.
        parts = {a: {bottom_id(a)} for a in extras}
        return {CompositionTuple.of(parts): 1.0}

    out = {}
    for a in extras:
        share = rho.prob(menu, a) / residual
        if share <= 0.0:
            continue
        others = tuple(b for b in extras if b != a)
        chain = _chain_for_aggregate(
            a, others, space, correspondence, targets, anchors, variant
        )
        for t, w in chain.items():
            out[t] = out.get(t, 0.0) + share * w
    return out


def rationalize(
    rho: StochasticChoice, space: AggregateSpace, variant: str = "multi"
) -> Rationalization:
    """Construct and verify a witness for an RU-rational dataset.

    Raises `AxiomViolated` with the failing report when the data does
    not pass the characterization.  The witness extends the partial
    check's certificate: the Block-Marschak flow on a full atomic
    domain, the atomic LP's support otherwise.  It is replayed against
    the data within the bound that certificate implies,
    ``replay_tol(len(space.atomic), cell_tol)``; a failed replay after a
    passing check is a library bug and raises `VerificationBug`.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "outside_option" and (
        len(space.non_atomic) != 1 or not space.atomic
    ):
        raise VariantUnavailable(
            "outside_option construction needs exactly one non-atomic aggregate "
            "and at least one atomic one"
        )

    lm = check_limited_monotonicity(rho, space)
    cell_tol = CERTIFICATE_TOL
    if space.atomic:
        partial = check_partial_ru(rho, space)
        if partial.method == "bm":
            cell_tol = flow_tol(len(space.atomic))
        report = AxiomReport.merge(lm, partial)
        if not report.passed:
            raise AxiomViolated("data is not RU-rational", report=report)
        correspondence, prefs = extend_preferences(
            partial.certificate, space, variant=variant
        )
    else:
        # Menus of non-atomic aggregates only: both axioms are vacuous and
        # any ranking of the synthetic alternatives supports the mixture.
        if not lm.passed:
            raise AxiomViolated("data is not RU-rational", report=lm)
        correspondence = _synthetic_correspondence(space, variant)
        tail = [top_id(a) for a in space.non_atomic] if variant == "multi" else []
        tail.extend(bottom_id(a) for a in space.non_atomic)
        prefs = PreferenceDistribution.degenerate(LinearOrder(tuple(tail)))

    per_menu: dict[Menu, dict[CompositionTuple, float]] = {}
    for menu in rho.menus:
        extras = menu & space.non_atomic_set
        if not extras:
            continue
        atoms = menu & space.atomic_set
        per_menu[menu] = build_lambda_for_menu(
            rho, atoms, extras, prefs, correspondence, variant=variant
        )
    composition = CompositionDistribution(per_menu)

    produced = forward_evaluate(prefs, correspondence, composition, rho.domain())
    # Each witness cell combines the certificate's atomic cells.
    residual = verify_replay(
        produced.table,
        rho.table,
        replay_tol(len(space.atomic), cell_tol),
        "constructed witness",
    )

    metadata = {
        "variant": variant,
        "non_atomic_order": list(space.non_atomic),
        "special_ids": {
            a: {
                "blockers": {y: blocker_id(a, y) for y in space.atomic},
                "top": top_id(a) if variant == "multi" else None,
                "bottom": bottom_id(a),
            }
            for a in space.non_atomic
        },
    }
    return Rationalization(prefs, correspondence, composition, metadata, residual)
