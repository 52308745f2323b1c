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
  aggregates.  On the full domain of the aggregates that is random
  utility over them (Falmagne 1978), so a Block-Marschak sum below
  -`bm_tol`, over the aggregates or over the atomic ids, fails it
  without an LP, by the partial check's rule; otherwise an LP over all
  orders decides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linprog
from .errors import (
    DomainClosureViolated,
    DomainTooLarge,
    IncompleteDomain,
    VerificationBug,
)
from .lattice import _bm_flow_chains, bm_values, cell_index
from .model import (
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    Menu,
    PreferenceDistribution,
    StochasticChoice,
    _check_enumerable,
    all_orders,
    aru_evaluate,
    nonempty_subsets,
    order_events,
    verify_replay,
)
from .tolerances import (
    AXIOM_TOL,
    CERTIFICATE_TOL,
    LP_TOL,
    bm_tol,
    flow_tol,
)

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
    #: Each cell of the certificate replayed within this (0 without one).
    replay_bound: float = 0.0

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


def _bm_violations(
    rho: StochasticChoice, ground: tuple[str, ...]
) -> tuple[np.ndarray, tuple[Violation, ...]]:
    """The Block-Marschak sums of the full domain on `ground`, and the
    cells whose sum falls below -`bm_tol`, sorted by menu, then id.

    A negative sum is itself the certificate of failure (every order's
    table has a nonnegative sum there), so each reported cell is
    replayed through `bm_polynomial`, which sums independently; a
    replay that misses by more than `flow_tol` raises.
    """
    lattice = AggregateSpace(ground, ())
    values = bm_values(rho, lattice)
    cells = [(m, a) for m in nonempty_subsets(ground) for a in m]
    sums = values.ravel()[cell_index(ground, cells)].tolist()
    floor = -bm_tol(len(ground))
    violations = [
        Violation("block-marschak", cell, value, 0.0)
        for cell, value in zip(cells, sums)
        if value < floor
    ]
    violations.sort(key=lambda v: (lattice.menu_key(v.subject[0]), v.subject[1]))
    bound = flow_tol(len(ground))
    for v in violations:
        menu, item = v.subject
        replayed = bm_polynomial(rho, lattice, menu, item)
        if not abs(replayed - v.lhs) <= bound:
            raise VerificationBug(
                f"Block-Marschak value {v.lhs!r} of {item!r} in {sorted(menu)} "
                f"misses its alternating sum {replayed!r} (tolerance {bound!r})"
            )
    return values, tuple(violations)


def _certified(
    weights: dict, rho: StochasticChoice, menus: list[Menu], bound: float, method: str
) -> AxiomReport:
    """The passing report of `method`, its certificate `weights` as a
    distribution, replayed on the menus within `bound`."""
    certificate = PreferenceDistribution(weights)
    # The replay space holds exactly the ids the certificate ranks.
    space = AggregateSpace(certificate.support[0].ranking, ())
    replay = aru_evaluate(certificate, ChoiceDomain(space, tuple(menus)))
    what = {"lp": "LP", "bm": "Block-Marschak"}[method]
    verify_replay(replay.table, rho.table, bound, f"{what} certificate")
    return AxiomReport(
        passed=True, certificate=certificate, method=method, replay_bound=bound
    )


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
    return _certified(weights, rho, menus, CERTIFICATE_TOL, "lp")


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
    is the certificate.  Either certificate is replayed against the data,
    and so is each negative Block-Marschak value that fails the check.
    """
    atoms = space.atomic
    menus = _atomic_menus(rho, space)
    if len(menus) != 2 ** len(atoms) - 1:
        return _partial_ru_lp(rho, space)
    if not atoms:  # without atomic ids there is no order to certify
        return AxiomReport(passed=True, method="bm")
    values, violations = _bm_violations(rho, atoms)
    if violations:
        return AxiomReport(passed=False, violations=violations, method="bm")
    chains = _bm_flow_chains(values)
    total = math.fsum(w for _, w in chains)
    weights = {LinearOrder(tuple(atoms[k] for k in c)): w / total for c, w in chains}
    return _certified(weights, rho, menus, flow_tol(len(atoms)), "bm")


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
        replay_bound=partial.replay_bound,
    )


def check_aru_rational(rho: StochasticChoice, space: AggregateSpace) -> AxiomReport:
    """Random-utility consistency of the whole table over the aggregates.

    On the full domain of the aggregates, the Block-Marschak sums over
    them come first, under the partial check's rule: the cells below
    -`bm_tol`, each replayed through `bm_polynomial`, are the failing
    report with method "bm".  Every order's sum is nonnegative, so such
    a cell rules the table out whatever the LP would say.  When none
    is, the sums over the atomic ids follow under the same rule: with
    k non-atomic ids an atomic sum adds up 2^k aggregate sums, so it
    can fall below -`bm_tol` while each of them stays above, and the
    RU check would fail the table.  Otherwise,
    and on any other domain, an LP over every order of the aggregates
    asks whether some mixture reproduces the whole table; a feasible
    mixture is returned as certificate.  Either way the
    order-enumeration cap holds.
    """
    ground = space.members
    _check_enumerable(ground)
    menus = list(rho.menus)
    if len(menus) == 2 ** len(ground) - 1:
        _, violations = _bm_violations(rho, ground)
        if not violations and space.non_atomic and space.atomic:
            _, violations = _bm_violations(rho, space.atomic)
        if violations:
            return AxiomReport(passed=False, violations=violations, method="bm")
    return _lp_rationalize(rho, menus, ground, "aru-lp-infeasible")
