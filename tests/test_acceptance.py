"""Acceptance suite: one test per exit criterion, with a printed verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test pins the tolerances stated in the project's
contract; seeded generators make every run identical.
"""

import itertools
import math
import time

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
    StochasticChoice,
    approx_caratheodory,
    aru_distance,
    aru_evaluate,
    bias,
    build_nesting_counterexample,
    check_aru_rational,
    check_partial_ru,
    check_ru_rational,
    collapse_to_aru,
    fit_aggregated_logit,
    forward_evaluate,
    grid_oracle_ru_n,
    lift_aru_to_nonoverlapping,
    logit_choice,
    minmax_bias,
    rationalize,
    sweep,
    vertex_choice,
    vertex_count_lower_bound,
)
from aggchoice.axioms import _partial_ru_lp
from aggchoice.model import all_orders
from aggchoice.simulation import (
    DEFAULT_UTILITIES,
    MARKET_MENUS,
    composition_from_triples,
    make_world,
    reduce_dataset,
)
from conftest import (
    random_composition,
    random_preferences,
    random_table,
    random_vertex_mixture,
)


def verdict(number: int, passed: bool, summary: str) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if passed else 'FAIL'} - {summary}")
    assert passed, f"criterion {number}: {summary}"


SPACES = [
    AggregateSpace(("y1", "y2"), ("a0",)),
    AggregateSpace(("y1", "y2", "y3"), ("a0",)),
    AggregateSpace(("y1", "y2"), ("a0", "a1")),
    AggregateSpace(("y1", "y2", "y3"), ("a0", "a1")),
]


def test_criterion_01_characterization_round_trip():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        space = SPACES[trial % 4]
        domain = ChoiceDomain.full(space)
        rho = random_vertex_mixture(space, domain, rng, max_vertices=10)
        assert check_ru_rational(rho, space).passed
        result = rationalize(rho, space)
        replay = forward_evaluate(
            result.prefs, result.correspondence, result.composition, domain
        )
        worst = max(worst, replay.max_cell_difference(rho))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        worst <= 1e-9 and elapsed < 30,
        f"200 mixtures round-trip (worst cell gap {worst:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_02_necessity_direction():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    corr_by_space = {}
    for space in SPACES:
        images = {a: (f"{a}u1", f"{a}u2") for a in space.non_atomic}
        corr_by_space[space] = AggregationCorrespondence.identity_atomic(
            space, images
        )
    all_passed = True
    for trial in range(200):
        space = SPACES[trial % 4]
        corr = corr_by_space[space]
        domain = ChoiceDomain.full(space)
        prefs = random_preferences(corr.ground, rng, support=5)
        lam = random_composition(corr, domain, rng)
        rho = forward_evaluate(prefs, corr, lam, domain)
        all_passed = all_passed and check_ru_rational(rho, space).passed
    elapsed = time.perf_counter() - start
    verdict(
        2,
        all_passed and elapsed < 10,
        f"200 forward evaluations satisfy the characterization ({elapsed:.1f}s)",
    )


def test_criterion_03_aru_strictly_inside_ru():
    # All 6 * (2^4 - 1) (order, family) pairs pass the RU check.  Pairs
    # whose deviations are vacuous (the deviation target is already the
    # order's maximum on each flagged menu) rebuild a rational table and
    # are necessarily ARU-rational; every pair producing a genuine
    # menu-effect table must fail the ARU check with distance > 1e-4.
    space = AggregateSpace(("x", "y"), ("a0",))
    domain = ChoiceDomain.full(space)
    a0_menus = [m for m in domain.menus if "a0" in m]
    rational = [
        vertex_choice(o, MenuCollectionFamily.empty(), domain)
        for o in all_orders(space.members)
    ]
    start = time.perf_counter()
    checked = effect_vertices = 0
    ok = True
    for order in all_orders(space.members):
        for r in range(1, len(a0_menus) + 1):
            for menus in itertools.combinations(a0_menus, r):
                checked += 1
                table = vertex_choice(
                    order, MenuCollectionFamily.single("a0", menus), domain
                )
                ok = ok and check_ru_rational(table, space).passed
                is_menu_effect = all(
                    table.max_cell_difference(t) > 0 for t in rational
                )
                if is_menu_effect:
                    effect_vertices += 1
                    ok = ok and not check_aru_rational(table, space).passed
                    ok = ok and aru_distance(table, space).squared_distance > 1e-4
    elapsed = time.perf_counter() - start
    verdict(
        3,
        ok and checked == 90 and effect_vertices == 36 and elapsed < 5,
        f"90 vertices RU-pass; all {effect_vertices} genuine menu-effect "
        f"tables fail ARU with distance > 1e-4 ({elapsed:.1f}s)",
    )


def test_criterion_04_lift_restores_aru():
    rng = np.random.default_rng(1004)
    space = AggregateSpace(("x", "y"), ("a0",))
    corr = AggregationCorrespondence.identity_atomic(space, {"a0": ("z", "w")})
    domain = ChoiceDomain.full(space)
    ok = True
    for _ in range(50):
        mu_agg = random_preferences(space.members, rng)
        lifted = lift_aru_to_nonoverlapping(mu_agg, corr)
        reference = None
        for _ in range(5):
            lam = random_composition(corr, domain, rng)
            rho = forward_evaluate(lifted, corr, lam, domain)
            if reference is None:
                reference = rho
                ok = ok and check_aru_rational(rho, space).passed
            else:
                ok = ok and rho.max_cell_difference(reference) <= 1e-12
    verdict(4, ok, "250 lifted evaluations identical across compositions, ARU-pass")


def test_criterion_05_menu_independence_restores_aru():
    rng = np.random.default_rng(1005)
    space = AggregateSpace(("x", "y"), ("a0",))
    corr = AggregationCorrespondence.identity_atomic(space, {"a0": ("z", "w")})
    domain = ChoiceDomain.full(space)
    subsets = [frozenset("z"), frozenset("w"), frozenset({"z", "w"})]
    ok = True
    for _ in range(50):
        prefs = random_preferences(corr.ground, rng)
        weights = rng.random(3) + 0.05
        weights /= weights.sum()
        shared = {
            CompositionTuple.of({"a0": s}): float(w)
            for s, w in zip(subsets, weights)
        }
        lam = CompositionDistribution(
            {m: dict(shared) for m in domain.menus if "a0" in m}
        )
        collapsed = collapse_to_aru(prefs, corr, lam, domain)
        forward = forward_evaluate(prefs, corr, lam, domain)
        replay = aru_evaluate(collapsed, domain)
        ok = ok and replay.max_cell_difference(forward) <= 1e-9
        ok = ok and aru_distance(forward, space).squared_distance <= 1e-8
    verdict(5, ok, "50 menu-independent models collapse to matching ARU models")


def test_criterion_06_sparse_approximation_bound():
    rng = np.random.default_rng(1006)
    space = AggregateSpace(("y1", "y2", "y3"), ("a0",))
    domain = ChoiceDomain.full(space)
    start = time.perf_counter()
    ok = True
    worst_ten = 0.0
    for _ in range(50):
        rho = random_vertex_mixture(space, domain, rng, max_vertices=10)
        for k in (2, 4, 10):
            result = approx_caratheodory(rho, k, space)
            ok = ok and result.achieved <= 1.0 / k + 1e-12
            if k == 10:
                worst_ten = max(worst_ten, result.achieved)
    elapsed = time.perf_counter() - start
    verdict(
        6,
        ok and worst_ten <= 0.1 + 1e-12 and elapsed < 20,
        f"uniform mixtures meet 1/k; worst k=10 error {worst_ten:.4f} "
        f"({elapsed:.1f}s)",
    )


def test_criterion_07_vertex_count_bound():
    _, ratio = vertex_count_lower_bound(6)
    verdict(7, ratio >= 2**32, f"ratio bound {ratio} >= 2^32 (exact integers)")


def test_criterion_08_nesting_family():
    ok = True
    details = []
    for m in (2, 3):
        space = AggregateSpace(tuple(f"y{i}" for i in range(1, m + 1)), ("a0",))
        rho = build_nesting_counterexample(space)
        ok = ok and check_ru_rational(rho, space).passed
        oracle = grid_oracle_ru_n(rho, m)
        ok = ok and not oracle.found
        result = rationalize(rho, space, variant="outside_option")
        ok = ok and result.residual <= 1e-9
        ok = ok and len(result.correspondence.underlying("a0")) == m + 1
        details.append(f"m={m}: not-found at n={m}, rationalized at n={m + 1}")
    verdict(8, ok, "; ".join(details))


def test_criterion_09_non_convexity_witness():
    space = AggregateSpace(("x", "y"), ("a0",))
    domain = ChoiceDomain.full(space)
    v1 = vertex_choice(
        LinearOrder(("x", "y", "a0")),
        MenuCollectionFamily.single("a0", [frozenset({"x", "a0"})]),
        domain,
    )
    v2 = vertex_choice(
        LinearOrder(("y", "x", "a0")),
        MenuCollectionFamily.single(
            "a0", [frozenset({"x", "a0"}), frozenset({"x", "y", "a0"})]
        ),
        domain,
    )
    found1 = grid_oracle_ru_n(v1, 2).found
    found2 = grid_oracle_ru_n(v2, 2).found
    mixture = StochasticChoice(
        space,
        {
            m: {a: 0.5 * v1.prob(m, a) + 0.5 * v2.prob(m, a) for a in m}
            for m in domain.menus
        },
    )
    mid = grid_oracle_ru_n(mixture, 2)
    verdict(
        9,
        found1 and found2 and not mid.found,
        "endpoint vertices found at n=2, midpoint mixture not found",
    )


def test_criterion_10_extremal_bias_thresholds():
    start = time.perf_counter()
    rows = minmax_bias(outer_step=0.1, inner_step=0.1)
    max_bias = max(r.max_bias for r in rows)
    min_bias = min(r.min_bias for r in rows)
    elapsed = time.perf_counter() - start
    reversal = min_bias < -1  # true utilities keep u(x) > u(y)
    verdict(
        10,
        max_bias > 2 and min_bias < -3 and reversal and elapsed < 60,
        f"max bias {max_bias:.3f} > 2, min bias {min_bias:.3f} < -3, "
        f"ordering reversal witnessed ({elapsed:.1f}s)",
    )


def test_criterion_11_zero_distance_cell():
    # Independent cell is (numerically) on the ARU polytope.  Dominance
    # is asserted in data space: cells whose reduced table sits at L1
    # distance >= 0.3 from the independent cell's table have strictly
    # larger distance.  In composition space a whole strip of cells
    # remains exactly ARU-rational, so the composition-space reading of
    # the dominance clause is unattainable; see the decisions ledger.
    space, corr, domain = make_world()
    rows = sweep("lambda", 0.1, "distance")
    base = composition_from_triples(
        {m: (0.8, 0.1, 0.1) for m in MARKET_MENUS}, domain
    )
    reference = reduce_dataset(DEFAULT_UTILITIES, corr, base, domain.menus)
    independent = next(
        r
        for r in rows
        if dict(r.point)["lam_z"] == 0.8 and dict(r.point)["lam_w"] == 0.1
    )
    ok = independent.squared_distance <= 1e-8
    far_cells = 0
    for r in rows:
        p = dict(r.point)
        triples = {
            frozenset({"y", "a0"}): (0.8, 0.1, 0.1),
            frozenset({"x", "y", "a0"}): (0.8, 0.1, 0.1),
            frozenset({"x", "a0"}): (p["lam_z"], p["lam_w"], p["lam_zw"]),
        }
        lam = composition_from_triples(triples, domain)
        produced = reduce_dataset(DEFAULT_UTILITIES, corr, lam, domain.menus)
        l1 = math.fsum(
            abs(produced.prob(m, a) - reference.prob(m, a))
            for m in domain.menus
            for a in m
        )
        if l1 >= 0.3:
            far_cells += 1
            ok = ok and r.squared_distance > independent.squared_distance
    verdict(
        11,
        ok and far_cells > 0,
        f"independent cell ~0 ({independent.squared_distance:.1e}); all "
        f"{far_cells} data-space-far cells strictly larger",
    )


def test_criterion_12_mle_correctness():
    space, _, domain = make_world()
    truth = {"x": 2.0, "y": 1.0, "a0": 0.0}
    rho = StochasticChoice(
        space, {m: logit_choice(truth, sorted(m)) for m in domain.menus}
    )
    estimates = fit_aggregated_logit(rho)
    recovery = max(abs(estimates[a] - truth[a]) for a in ("x", "y"))
    gradient = max(
        abs(
            math.fsum(
                rho.prob(m, a) - logit_choice(estimates, sorted(m))[a]
                for m in domain.menus
                if a in m
            )
        )
        for a in ("x", "y")
    )
    verdict(
        12,
        recovery <= 1e-6 and gradient <= 1e-10,
        f"exact logit recovered (max error {recovery:.1e}, gradient "
        f"{gradient:.1e})",
    )


def test_criterion_13_bm_lp_agreement():
    rng = np.random.default_rng(1013)
    agreements = 0
    total = 0
    for atoms in (2, 3, 4):
        space = AggregateSpace(tuple(f"i{k}" for k in range(atoms)), ())
        domain = ChoiceDomain.full(space)
        trials = 334 if atoms < 4 else 332
        for _ in range(trials):
            total += 1
            rho = random_table(space, domain, rng)
            bm = check_partial_ru(rho, space).passed
            lp = _partial_ru_lp(rho, space).passed
            agreements += bm == lp
    verdict(
        13,
        agreements == total == 1000,
        f"BM and LP routes agree on all {total} random datasets",
    )
