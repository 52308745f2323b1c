"""Testable characterizations of the rationality notions.

Four checks, in increasing strength of what they certify:

* limited monotonicity: adding non-atomic aggregates to an all-atomic
  menu never raises an atomic alternative's choice probability (menus
  that already contain non-atomic aggregates are unconstrained);
* partial RU-rationality: random-utility consistency restricted to the
  all-atomic menus, via Block-Marschak nonnegativity on full domains or
  an exact order-enumeration LP otherwise;
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
    Menu,
    PreferenceDistribution,
    StochasticChoice,
    all_orders,
    aru_evaluate,
    order_events,
    verify_replay,
)
from .tolerances import AXIOM_TOL, CERTIFICATE_TOL, LP_TOL

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

    @staticmethod
    def merge(*reports: "AxiomReport") -> "AxiomReport":
        violations = tuple(v for r in reports for v in r.violations)
        certificate = next(
            (r.certificate for r in reports if r.certificate is not None), None
        )
        return AxiomReport(
            passed=not violations, violations=violations, certificate=certificate
        )


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
    certificate = PreferenceDistribution({orders[j]: w for j, w in support.items()})
    # The replay space holds exactly the ids the certificate ranks.
    replay = aru_evaluate(
        certificate, ChoiceDomain(AggregateSpace(ground, ()), tuple(menus))
    )
    verify_replay(replay.table, rho.table, CERTIFICATE_TOL, "LP certificate")
    return AxiomReport(passed=True, certificate=certificate, method="lp")


def check_partial_ru(
    rho: StochasticChoice, space: AggregateSpace, method: str = "auto"
) -> AxiomReport:
    """Random-utility consistency on the all-atomic menus.

    The Block-Marschak route needs the full atomic domain and checks all
    alternating sums for nonnegativity; the LP route solves the exact
    feasibility problem over enumerated atomic orders and returns a
    rationalizing distribution as certificate.  `auto` picks the BM route
    exactly when the atomic domain is full.
    """
    atoms = space.atomic
    menus = _atomic_menus(rho, space)
    full_count = 2 ** len(atoms) - 1
    is_full = len(menus) == full_count
    if method == "auto":
        method = "bm" if is_full else "lp"
    if method == "bm":
        if not is_full:
            raise IncompleteDomain(
                "Block-Marschak route requires every nonempty atomic menu"
            )
        violations = []
        for menu in menus:
            for item in space.sort(menu):
                value = bm_polynomial(rho, space, menu, item)
                if value < -AXIOM_TOL:
                    violations.append(
                        Violation("block-marschak", (menu, item), value, 0.0)
                    )
        violations.sort(key=lambda v: (space.menu_key(v.subject[0]), v.subject[1]))
        return AxiomReport(
            passed=not violations, violations=tuple(violations), method="bm"
        )
    if method != "lp":
        raise ValueError(f"unknown method {method!r}")
    if len(atoms) > MAX_ATOMIC_LP:
        raise DomainTooLarge(
            f"LP route enumerates {len(atoms)}! orders; cap is {MAX_ATOMIC_LP}"
        )
    return _lp_rationalize(rho, menus, atoms, "partial-ru-lp-infeasible")


def check_ru_rational(rho: StochasticChoice, space: AggregateSpace) -> AxiomReport:
    """Full characterization: limited monotonicity plus partial RU."""
    lm = check_limited_monotonicity(rho, space)
    partial = check_partial_ru(rho, space, method="auto")
    merged = AxiomReport.merge(lm, partial)
    return AxiomReport(
        passed=merged.passed,
        violations=merged.violations,
        certificate=merged.certificate,
        method=partial.method,
    )


def check_aru_rational(rho: StochasticChoice, space: AggregateSpace) -> AxiomReport:
    """LP feasibility of a random-utility model over the aggregates.

    Enumerates every order of the aggregate set and asks whether some
    mixture reproduces the whole table; a feasible mixture is returned
    as certificate.
    """
    return _lp_rationalize(rho, list(rho.menus), space.members, "aru-lp-infeasible")
