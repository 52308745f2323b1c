"""Constructive rationalization of axiom-passing data.

Given data that passes `check_ru_rational` (limited monotonicity and
partial RU-rationality), extends its certificate to an explicit witness
(preference distribution over synthetic underlying alternatives,
aggregation correspondence, per-menu composition distribution) whose
forward evaluation reproduces the data.

Two constructions are available.  The `multi` variant works for any
number of non-atomic aggregates and gives each one |atomic| + 2
underlying alternatives: one "blocker" per atomic alternative placed
immediately above it in every extended ranking, plus a top and a bottom
element below all atomics.  The `outside_option` variant needs a single
non-atomic aggregate and at least one atomic one, and gets away with
|atomic| + 1 alternatives (blockers plus a bottom element).

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

from .axioms import check_ru_rational

# Unused here, but bench/tracing.py patches these names at this import site.
from .axioms import check_limited_monotonicity, check_partial_ru  # noqa: F401
from .errors import (
    AxiomViolated,
    DomainClosureViolated,
    GroundMismatch,
    VariantUnavailable,
)
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
    verify_replay,
)
from .tolerances import AXIOM_TOL, PROB_TOL, replay_tol
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


def _check_variant(space: AggregateSpace, variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "outside_option" and (
        len(space.non_atomic) != 1 or not space.atomic
    ):
        raise VariantUnavailable(
            "outside_option construction needs exactly one non-atomic aggregate "
            "and at least one atomic one"
        )


def _extend(
    ranking: tuple[str, ...], space: AggregateSpace, variant: str
) -> tuple[str, ...]:
    """A ranking of atomic ids, lifted to the synthetic underlying set.

    Each non-atomic aggregate's blocker for an atomic id sits immediately
    above it (non-atomic aggregates in construction order), and the
    top/bottom elements fill the tail.  Without non-atomic aggregates
    this is the identity.
    """
    out: list[str] = []
    for y in ranking:
        out.extend(blocker_id(a, y) for a in space.non_atomic)
        out.append(y)
    if variant == "multi":
        out.extend(top_id(a) for a in space.non_atomic)
    out.extend(bottom_id(a) for a in space.non_atomic)
    return tuple(out)


def extend_preferences(
    atomic_prefs: PreferenceDistribution,
    space: AggregateSpace,
    variant: str = "multi",
) -> tuple[AggregationCorrespondence, PreferenceDistribution]:
    """Lift an atomic-level distribution to the synthetic underlying set.

    Each support ranking over the atomic aggregates extends by `_extend`,
    so every atomic alternative keeps its relative position.  Weights
    carry over unchanged, so restricting any extended ranking back to the
    atomic ids recovers the original ranking.
    """
    _check_variant(space, variant)
    if atomic_prefs.ground != space.atomic_set:
        raise GroundMismatch("atomic distribution must rank exactly the atomic ids")
    weights = {
        LinearOrder(_extend(order.ranking, space, variant)): w
        for order, w in atomic_prefs.items()
    }
    return _synthetic_correspondence(space, variant), PreferenceDistribution(weights)


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


def _top(correspondence: AggregationCorrespondence, aggregate: str) -> str | None:
    """The top element of X(aggregate); only `multi` witnesses have one."""
    top = top_id(aggregate)
    return top if top in correspondence.underlying(aggregate) else None


def _chain_for_aggregate(
    aggregate: str,
    others: tuple[str, ...],
    correspondence: AggregationCorrespondence,
    targets: dict[str, float],
    anchors: dict[str, float],
) -> dict[CompositionTuple, float]:
    """One aggregate's composition chain matching all atomic targets.

    Returns a distribution whose forward evaluation gives every atomic
    alternative its target probability and routes all residual mass to
    `aggregate`.
    """
    space = correspondence.space
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
    r0 = max(ratios.values(), default=0.0)
    out: dict[CompositionTuple, float] = {}
    if r0 > 0.0:
        leader = next(y for y in space.sort(active) if ratios[y] == r0)
        rest = sorted(
            (y for y in active if y != leader),
            key=lambda y: (ratios[y], space.index(y)),
        )
        # Seed: the top element, or the bottom one for outside_option (no top).
        part = frozenset({_top(correspondence, aggregate) or bottom_id(aggregate)})
        prev = 0.0
        for y in rest:
            c = ratios[y] / r0
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
    rho: StochasticChoice, menu: Menu, correspondence: AggregationCorrespondence
) -> dict[CompositionTuple, float]:
    """Composition distribution for one mixed menu.

    The menu splits into its atomic and non-atomic parts by the
    correspondence's space, and each chain starts from the top element
    of X(a) when it has one, the bottom element otherwise.  The anchor
    probabilities of the atomic alternatives are the observed
    atomic-menu row, which must be in the data (domain closure, as
    limited monotonicity requires); the construction is exact whenever
    they match the atomic marginals of the preferences it is paired
    with.  Each non-atomic aggregate's chain enters the mixture with its
    share of the mass the aggregates take.
    """
    space = correspondence.space
    atoms = menu & space.atomic_set
    extras = space.sort(menu & space.non_atomic_set)
    if not extras:
        raise ValueError("menu must contain a non-atomic aggregate")
    if not atoms and len(extras) == 1:
        only = extras[0]
        return {CompositionTuple.of({only: {bottom_id(only)}}): 1.0}
    if atoms and atoms not in rho.table:
        raise DomainClosureViolated(
            f"menu {sorted(menu)} observed without its atomic part {sorted(atoms)}"
        )

    anchors = {y: rho.prob(atoms, y) for y in atoms}
    targets = {y: rho.prob(menu, y) for y in atoms}
    residual = math.fsum(rho.prob(menu, a) for a in extras)
    if residual <= PROB_TOL:
        # Aggregates absorb nothing: every atomic equation holds with
        # equality, so the all-bottom tuple reproduces the menu exactly.
        parts = {a: {bottom_id(a)} for a in extras}
        return {CompositionTuple.of(parts): 1.0}

    out: dict[CompositionTuple, float] = {}
    for a in extras:
        share = rho.prob(menu, a) / residual
        if share <= 0.0:
            continue
        others = tuple(b for b in extras if b != a)
        chain = _chain_for_aggregate(a, others, correspondence, targets, anchors)
        for t, w in chain.items():
            out[t] = out.get(t, 0.0) + share * w
    return out


def rationalize(
    rho: StochasticChoice, space: AggregateSpace, variant: str = "multi"
) -> Rationalization:
    """Construct and verify a witness for an RU-rational dataset.

    The verdict is `check_ru_rational`'s: raises `AxiomViolated` with its
    report when the data fails it.  The witness extends that report's
    certificate, the Block-Marschak flow on a full atomic domain and the
    atomic LP's support otherwise (without atomic ids there is nothing to
    certify, and the witness is the extension of the empty ranking).  It
    is replayed within ``replay_tol(len(space.atomic), report.replay_bound)``,
    from the bound the certificate's own route set; a failed replay after
    a passing check is a library bug and raises `VerificationBug`.
    """
    _check_variant(space, variant)
    report = check_ru_rational(rho, space)
    if not report.passed:
        raise AxiomViolated("data is not RU-rational", report=report)
    if report.certificate is None:
        correspondence = _synthetic_correspondence(space, variant)
        prefs = PreferenceDistribution.degenerate(
            LinearOrder(_extend((), space, variant))
        )
    else:
        correspondence, prefs = extend_preferences(report.certificate, space, variant)

    composition = CompositionDistribution(
        {
            menu: build_lambda_for_menu(rho, menu, correspondence)
            for menu in rho.menus
            if menu & space.non_atomic_set
        }
    )

    produced = forward_evaluate(prefs, correspondence, composition, rho.domain())
    # Each witness cell combines the certificate's atomic cells.
    residual = verify_replay(
        produced.table,
        rho.table,
        replay_tol(len(space.atomic), report.replay_bound),
        "constructed witness",
    )

    metadata = {
        "variant": variant,
        "non_atomic_order": list(space.non_atomic),
        "special_ids": {
            a: {
                "blockers": {y: blocker_id(a, y) for y in space.atomic},
                "top": _top(correspondence, a),
                "bottom": bottom_id(a),
            }
            for a in space.non_atomic
        },
    }
    return Rationalization(prefs, correspondence, composition, metadata, residual)
