"""Testable characterizations of the rationality notions.

Four checks, in increasing strength of what they certify:

* limited monotonicity: adding non-atomic aggregates to an all-atomic
  menu never raises an atomic alternative's choice probability (menus
  that already contain non-atomic aggregates are unconstrained);
* partial RU-rationality: random-utility consistency restricted to the
  all-atomic menus, via Block-Marschak nonnegativity on full domains
  (whose flow on the subset lattice splits into a rationalizing
  distribution) or an exact order-enumeration LP otherwise;
* RU-rationality: the conjunction of the two (the full characterization);
* ARU-rationality: random-utility consistency of the whole table over
  aggregates, by LP feasibility over all orders.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linprog
from .errors import DomainClosureViolated, DomainTooLarge, IncompleteDomain
from .model import (
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    Menu,
    PreferenceDistribution,
    StochasticChoice,
    all_orders,
    aru_evaluate,
    order_events,
    verify_replay,
)
from .tolerances import AXIOM_TOL, CERTIFICATE_TOL, LP_TOL, SUPPORT_FLOOR, flow_tol

#: Order-enumeration cap for the partial (atomic-only) LP route.
MAX_ATOMIC_LP = 7


@dataclass(frozen=True)
class Violation:
    """One failed comparison: `slack = lhs - rhs` is negative."""

    kind: str
    subject: tuple
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple[Violation, ...] = ()
    certificate: PreferenceDistribution | None = None
    method: str | None = None

    def __post_init__(self):
        if self.passed != (len(self.violations) == 0):
            raise ValueError("passed flag must match emptiness of violations")


def _atomic_menus(rho: StochasticChoice, space: AggregateSpace) -> list[Menu]:
    return [m for m in rho.menus if m <= space.atomic_set]


def check_limited_monotonicity(
    rho: StochasticChoice, space: AggregateSpace
) -> AxiomReport:
    """Compare each mixed menu against its atomic part.

    For every observed menu D | E with atomic D and nonempty non-atomic
    E, requires rho(D, b) >= rho(D | E, b) for all b in D.  The atomic
    menu D must itself be observed (domain closure), otherwise the pair
    cannot be evaluated.
    """
    violations: list[Violation] = []
    observed = set(rho.menus)
    for menu in rho.menus:
        atoms = menu & space.atomic_set
        extras = menu & space.non_atomic_set
        if not atoms or not extras:
            continue
        if atoms not in observed:
            raise DomainClosureViolated(
                f"menu {sorted(menu)} observed without its atomic part "
                f"{sorted(atoms)}"
            )
        for b in space.sort(atoms):
            base = rho.prob(atoms, b)
            mixed = rho.prob(menu, b)
            if base < mixed - AXIOM_TOL:
                violations.append(
                    Violation("limited-monotonicity", (atoms, menu, b), base, mixed)
                )
    violations.sort(key=lambda v: (space.menu_key(v.subject[1]), v.subject[2]))
    return AxiomReport(passed=not violations, violations=tuple(violations))


def bm_polynomial(
    rho: StochasticChoice, space: AggregateSpace, menu: Menu, item: str
) -> float:
    """Alternating inclusion-exclusion sum q(D, x) over atomic supersets.

    Nonnegativity of all these cells characterizes random-utility
    consistency on a full atomic domain.
    """
    menu = frozenset(menu)
    if item not in menu or not menu <= space.atomic_set:
        raise ValueError("bm_polynomial needs an atomic menu containing the item")
    rest = [a for a in space.atomic if a not in menu]
    terms = []
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            superset = menu | frozenset(extra)
            if superset not in rho.table:
                raise IncompleteDomain(
                    f"missing atomic menu {sorted(superset)} for the alternating sum"
                )
            terms.append((-1.0) ** r * rho.prob(superset, item))
    return math.fsum(terms)


def bm_values(rho: StochasticChoice, space: AggregateSpace) -> np.ndarray:
    """Every Block-Marschak sum of a full atomic domain, in one Möbius pass.

    Entry (k, s) is ``bm_polynomial(rho, space, menu, space.atomic[k])``
    for the atomic menu that holds ``space.atomic[j]`` exactly when bit j
    of s is set, if it holds that id; the other entries mean nothing.
    The pass over bit b takes each set's values minus those of the set
    with b added, so after all n passes each entry is the alternating
    sum over its supersets.
    """
    atoms = space.atomic
    n = len(atoms)
    values = np.zeros((n, 2**n))
    for s in range(1, 2**n):
        menu = frozenset(a for k, a in enumerate(atoms) if s >> k & 1)
        if menu not in rho.table:
            raise IncompleteDomain(
                f"missing atomic menu {sorted(menu)} for the alternating sum"
            )
        for k, a in enumerate(atoms):
            if s >> k & 1:
                values[k, s] = rho.table[menu][a]
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


def _certified(
    weights: dict, rho: StochasticChoice, menus: list[Menu], bound: float, what: str
) -> PreferenceDistribution:
    """`weights` as a distribution, replayed on the menus within `bound`."""
    certificate = PreferenceDistribution(weights)
    # The replay space holds exactly the ids the certificate ranks.
    space = AggregateSpace(certificate.support[0].ranking, ())
    replay = aru_evaluate(certificate, ChoiceDomain(space, tuple(menus)))
    verify_replay(replay.table, rho.table, bound, what)
    return certificate


def _lp_rationalize(
    rho: StochasticChoice,
    menus: list[Menu],
    ground: tuple[str, ...],
    kind: str,
) -> AxiomReport:
    """Exact feasibility of a random-utility model on the given menus.

    The LP's support is the certificate, replayed against the data; a
    replay that misses by more than CERTIFICATE_TOL raises.  An
    infeasible LP gives one violation of the given kind.
    """
    position = {a: i for i, a in enumerate(ground)}
    cells = [(m, a) for m in menus for a in sorted(m, key=position.__getitem__)]
    events = order_events(ground, cells)
    b = np.array([rho.prob(m, x) for m, x in cells])
    result, support = linprog.solve_mixture(events, b, LP_TOL)
    if not result.feasible:
        violation = Violation(kind, (), -result.residual, 0.0)
        return AxiomReport(passed=False, violations=(violation,), method="lp")
    orders = all_orders(ground)
    weights = {orders[j]: w for j, w in support.items()}
    certificate = _certified(weights, rho, menus, CERTIFICATE_TOL, "LP certificate")
    return AxiomReport(passed=True, certificate=certificate, method="lp")


def _partial_ru_lp(rho: StochasticChoice, space: AggregateSpace) -> AxiomReport:
    """The order-enumeration LP on the all-atomic menus.

    `check_partial_ru` takes this route on a partial atomic domain; on a
    full one it is the exact reference the Block-Marschak route is
    tested against.
    """
    atoms = space.atomic
    if len(atoms) > MAX_ATOMIC_LP:
        raise DomainTooLarge(
            f"LP route enumerates {len(atoms)}! orders; cap is {MAX_ATOMIC_LP}"
        )
    return _lp_rationalize(
        rho, _atomic_menus(rho, space), atoms, "partial-ru-lp-infeasible"
    )


def check_partial_ru(rho: StochasticChoice, space: AggregateSpace) -> AxiomReport:
    """Random-utility consistency on the all-atomic menus.

    The domain picks the route.  On the full atomic domain, the
    Block-Marschak route checks all alternating sums for nonnegativity,
    which is exact there (Falmagne 1978); on a pass, the chains of their
    flow are the certificate.  Otherwise the LP route solves the exact
    feasibility problem over enumerated atomic orders, and its support
    is the certificate.  Either certificate is replayed against the data.
    """
    atoms = space.atomic
    menus = _atomic_menus(rho, space)
    if len(menus) != 2 ** len(atoms) - 1:
        return _partial_ru_lp(rho, space)
    values = bm_values(rho, space)
    position = {a: k for k, a in enumerate(atoms)}
    violations = []
    for menu in menus:
        s = sum(1 << position[a] for a in menu)
        for item in space.sort(menu):
            value = float(values[position[item], s])
            if value < -AXIOM_TOL:
                violations.append(Violation("block-marschak", (menu, item), value, 0.0))
    if violations:
        violations.sort(key=lambda v: (space.menu_key(v.subject[0]), v.subject[1]))
        return AxiomReport(passed=False, violations=tuple(violations), method="bm")
    if not atoms:  # without atomic ids there is no order to certify
        return AxiomReport(passed=True, method="bm")
    chains = _bm_flow_chains(values)
    total = math.fsum(w for _, w in chains)
    weights = {LinearOrder(tuple(atoms[k] for k in c)): w / total for c, w in chains}
    bound = flow_tol(len(atoms))
    certificate = _certified(weights, rho, menus, bound, "Block-Marschak certificate")
    return AxiomReport(passed=True, certificate=certificate, method="bm")


def check_ru_rational(rho: StochasticChoice, space: AggregateSpace) -> AxiomReport:
    """Full characterization: limited monotonicity plus partial RU.

    The route and certificate are the partial check's.
    """
    lm = check_limited_monotonicity(rho, space)
    partial = check_partial_ru(rho, space)
    violations = lm.violations + partial.violations
    return AxiomReport(
        passed=not violations,
        violations=violations,
        certificate=partial.certificate,
        method=partial.method,
    )


def check_aru_rational(rho: StochasticChoice, space: AggregateSpace) -> AxiomReport:
    """LP feasibility of a random-utility model over the aggregates.

    Enumerates every order of the aggregate set and asks whether some
    mixture reproduces the whole table; a feasible mixture is returned
    as certificate.
    """
    return _lp_rationalize(rho, list(rho.menus), space.members, "aru-lp-infeasible")
