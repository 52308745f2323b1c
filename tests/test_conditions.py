
import numpy as np
import pytest

from aggchoice import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    NotMenuIndependent,
    PreferenceDistribution,
    VerificationBug,
    aru_evaluate,
    check_aru_rational,
    collapse_to_aru,
    forward_evaluate,
    is_menu_independent,
    is_non_overlapping,
    lift_aru_to_nonoverlapping,
    extend_preferences,
    unconditional_joint,
)
from aggchoice import linprog
from aggchoice.conditions import MARGINAL_TOL
from conftest import random_composition, random_preferences

X, A0 = "x", "a0"


def delta(*ranking):
    return PreferenceDistribution.degenerate(LinearOrder(ranking))


def constant_composition(domain, space, mapping):
    per_menu = {}
    for menu in domain.menus:
        if not (menu & space.non_atomic_set):
            continue
        per_menu[menu] = {
            CompositionTuple.of({A0: s}): w for s, w in mapping.items()
        }
    return CompositionDistribution(per_menu)


def pairwise_menus():
    """Three aggregates in three pairwise menus with consistent marginals."""
    space = AggregateSpace((), ("a", "b", "c"))
    corr = AggregationCorrespondence.identity_atomic(
        space, {k: (f"{k}1", f"{k}2") for k in ("a", "b", "c")}
    )
    menus = [frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"a", "c"})]
    dom = ChoiceDomain(space, tuple(menus))
    per_menu = {}
    for menu in menus:
        first, second = sorted(menu)
        per_menu[menu] = {
            CompositionTuple.of({first: {f"{first}{i}"}, second: {f"{second}{i}"}}): w
            for i, w in ((1, 0.25), (2, 0.75))
        }
    return corr, dom, CompositionDistribution(per_menu)


@pytest.fixture
def solves(monkeypatch):
    """Shapes of the systems handed to `linprog.solve_feasibility`."""
    calls = []
    solve = linprog.solve_feasibility

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(linprog, "solve_feasibility", spy)
    return calls


class TestNonOverlapping:
    def test_contiguous_block_holds(self, outside_corr):
        report = is_non_overlapping(delta("z", "w", "x"), outside_corr)
        assert report.holds

    def test_sandwiched_alternative_flagged(self, outside_corr):
        report = is_non_overlapping(delta("z", "x", "w"), outside_corr)
        assert not report.holds
        ((order, aggregate, foreign),) = report.witnesses
        assert (aggregate, foreign) == (A0, X)

    def test_extension_overlaps_with_two_atomics(self):
        space = AggregateSpace(("x", "y"), (A0,))
        mu = PreferenceDistribution(
            {LinearOrder(("x", "y")): 0.5, LinearOrder(("y", "x")): 0.5}
        )
        corr, ext = extend_preferences(mu, space)
        assert not is_non_overlapping(ext, corr).holds


class TestLift:
    def test_block_substitution(self, outside_corr):
        lifted = lift_aru_to_nonoverlapping(delta("x", A0), outside_corr)
        (order,) = lifted.support
        assert order.ranking == ("x", "z", "w")

    def test_weight_preservation(self, outside_corr):
        mu = PreferenceDistribution(
            {LinearOrder(("x", A0)): 0.5, LinearOrder((A0, "x")): 0.5}
        )
        lifted = lift_aru_to_nonoverlapping(mu, outside_corr)
        assert len(lifted.support) == 2
        assert all(w == pytest.approx(0.5) for w in lifted.weights.values())

    def test_always_non_overlapping(self, outside_corr):
        rng = np.random.default_rng(61)
        space = outside_corr.space
        for _ in range(20):
            mu = random_preferences(space.members, rng)
            lifted = lift_aru_to_nonoverlapping(mu, outside_corr)
            assert is_non_overlapping(lifted, outside_corr).holds

    def test_lift_reproduces_aggregate_model_under_any_composition(self, outside_corr):
        # Lifted preferences reproduce the aggregate model under any
        # composition distribution and stay ARU-rational.
        rng = np.random.default_rng(62)
        space = outside_corr.space
        dom = ChoiceDomain.full(space)
        for _ in range(15):
            mu = random_preferences(space.members, rng)
            target = aru_evaluate(mu, dom)
            lifted = lift_aru_to_nonoverlapping(mu, outside_corr)
            for _ in range(3):
                lam = random_composition(outside_corr, dom, rng)
                produced = forward_evaluate(lifted, outside_corr, lam, dom)
                assert produced.max_cell_difference(target) <= 1e-12
                assert check_aru_rational(produced, space).passed


class TestMenuIndependence:
    def test_identical_compositions_hold(self, outside_corr):
        dom = ChoiceDomain.full(outside_corr.space)
        lam = constant_composition(
            dom,
            outside_corr.space,
            {frozenset("z"): 0.6, frozenset({"z", "w"}): 0.4},
        )
        assert is_menu_independent(lam, outside_corr, dom).holds

    def test_mismatch_flagged_with_tuple(self, outside_corr):
        dom = ChoiceDomain.full(outside_corr.space)
        lam = CompositionDistribution(
            {
                frozenset({A0}): {CompositionTuple.of({A0: {"z"}}): 1.0},
                frozenset({X, A0}): {CompositionTuple.of({A0: {"w"}}): 1.0},
            }
        )
        report = is_menu_independent(lam, outside_corr, dom)
        assert not report.holds
        (menus, t, gap) = report.witnesses[0]
        assert gap == pytest.approx(1.0)

    def test_correlation_across_aggregates_allowed(self):
        space = AggregateSpace((X,), ("a", "b"))
        corr = AggregationCorrespondence.identity_atomic(
            space, {"a": ("a1", "a2"), "b": ("b1", "b2")}
        )
        dom = ChoiceDomain.full(space)
        joint = {
            CompositionTuple.of({"a": {"a1"}, "b": {"b1"}}): 0.5,
            CompositionTuple.of({"a": {"a2"}, "b": {"b2"}}): 0.5,
        }
        lam = CompositionDistribution.constant(dom.menus, space, joint)
        assert is_menu_independent(lam, corr, dom).holds

    def test_pairwise_consistent_but_no_joint(self):
        # Marginals that agree pairwise may still admit no joint when the
        # correlation requirements conflict across menus.
        space = AggregateSpace((), ("a", "b", "c"))
        corr = AggregationCorrespondence.identity_atomic(
            space, {k: (f"{k}1", f"{k}2") for k in ("a", "b", "c")}
        )
        menus = [frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"a", "c"})]
        dom = ChoiceDomain(space, tuple(menus))

        def pair(first, second, anti):
            out = {}
            for i in (1, 2):
                j = 3 - i if anti else i
                out[
                    CompositionTuple.of(
                        {first: {f"{first}{i}"}, second: {f"{second}{j}"}}
                    )
                ] = 0.5
            return out

        lam = CompositionDistribution(
            {
                frozenset({"a", "b"}): pair("a", "b", anti=False),
                frozenset({"b", "c"}): pair("b", "c", anti=False),
                frozenset({"a", "c"}): pair("a", "c", anti=True),
            }
        )
        report = is_menu_independent(lam, corr, dom)
        assert not report.holds

    def test_unconditional_joint_rejects_menu_dependence(self, outside_corr):
        dom = ChoiceDomain.full(outside_corr.space)
        lam = CompositionDistribution(
            {
                frozenset({A0}): {CompositionTuple.of({A0: {"z"}}): 1.0},
                frozenset({X, A0}): {CompositionTuple.of({A0: {"w"}}): 1.0},
            }
        )
        with pytest.raises(NotMenuIndependent):
            unconditional_joint(lam, outside_corr, dom)

    def test_joint_from_pairwise_menus_solves_the_lp(self, solves):
        # No menu holds all three aggregates, so the joint comes from the
        # feasibility LP; every menu's marginal of it must match the data.
        corr, dom, lam = pairwise_menus()
        menus = dom.menus
        joint = unconditional_joint(lam, corr, dom)
        assert len(solves) == 1
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
        for menu in menus:
            marginal = {}
            for t, w in joint.items():
                sub = CompositionTuple.of({a: t.part(a) for a in menu})
                marginal[sub] = marginal.get(sub, 0.0) + w
            expected = lam.for_menu(menu)
            for t in set(marginal) | set(expected):
                gap = abs(marginal.get(t, 0.0) - expected.get(t, 0.0))
                assert gap <= MARGINAL_TOL

    def test_joint_lp_point_is_replayed(self, monkeypatch):
        # A solver that claims feasibility with all mass on the first
        # profile: that joint's marginals miss every menu's distribution.
        def solve(a, b, tol):
            x = np.zeros(a.shape[1])
            x[0] = 1.0
            return linprog.FeasibilityResult(True, x, 0.0)

        monkeypatch.setattr(linprog, "solve_feasibility", solve)
        corr, dom, lam = pairwise_menus()
        with pytest.raises(VerificationBug):
            is_menu_independent(lam, corr, dom)
        with pytest.raises(VerificationBug):
            unconditional_joint(lam, corr, dom)

    def test_aggregate_in_no_menu_defaults_to_full_set_on_the_lp_path(self):
        # Two of the three aggregates share a menu with x, none shares one
        # with each other, and c is in no menu: the LP path must still give
        # c its full underlying set, as the one-aggregate path does.
        space = AggregateSpace((X,), ("a", "b", "c"))
        corr = AggregationCorrespondence.identity_atomic(
            space, {k: (f"{k}1", f"{k}2") for k in ("a", "b", "c")}
        )
        menus = [frozenset({X, "a"}), frozenset({X, "b"})]
        dom = ChoiceDomain(space, tuple(menus))
        lam = CompositionDistribution(
            {
                menus[0]: {
                    CompositionTuple.of({"a": {"a1"}}): 0.5,
                    CompositionTuple.of({"a": {"a1", "a2"}}): 0.5,
                },
                menus[1]: {CompositionTuple.of({"b": {"b2"}}): 1.0},
            }
        )
        joint = unconditional_joint(lam, corr, dom)
        assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
        assert {t.part("c") for t in joint} == {frozenset({"c1", "c2"})}
        assert {t.part("b") for t in joint} == {frozenset({"b2"})}
        assert is_menu_independent(lam, corr, dom).holds

    def test_full_menu_marginals_must_match(self):
        space = AggregateSpace((X,), ("a", "b"))
        corr = AggregationCorrespondence.identity_atomic(
            space, {"a": ("a1", "a2"), "b": ("b1", "b2")}
        )
        dom = ChoiceDomain.full(space)
        per_menu = {}
        for menu in dom.menus:
            present = tuple(sorted(menu & space.non_atomic_set))
            if not present:
                continue
            if present == ("a",):
                per_menu[menu] = {CompositionTuple.of({"a": {"a1"}}): 1.0}
            elif present == ("b",):
                per_menu[menu] = {CompositionTuple.of({"b": {"b1"}}): 1.0}
            else:
                # Contradicts the a-only menus.
                per_menu[menu] = {
                    CompositionTuple.of({"a": {"a2"}, "b": {"b1"}}): 1.0
                }
        lam = CompositionDistribution(per_menu)
        assert not is_menu_independent(lam, corr, dom).holds


class TestCollapse:
    def test_degenerate_full_composition(self, outside_corr):
        dom = ChoiceDomain.full(outside_corr.space)
        lam = constant_composition(
            dom, outside_corr.space, {frozenset({"z", "w"}): 1.0}
        )
        collapsed = collapse_to_aru(delta("z", "x", "w"), outside_corr, lam, dom)
        assert collapsed.weights == {LinearOrder((A0, X)): 1.0}

    def test_half_half_composition(self, outside_corr):
        dom = ChoiceDomain.full(outside_corr.space)
        lam = constant_composition(
            dom, outside_corr.space, {frozenset("z"): 0.5, frozenset("w"): 0.5}
        )
        collapsed = collapse_to_aru(delta("z", "x", "w"), outside_corr, lam, dom)
        assert collapsed.weights[LinearOrder((A0, X))] == pytest.approx(0.5)
        assert collapsed.weights[LinearOrder((X, A0))] == pytest.approx(0.5)

    def test_non_overlapping_collapse_is_block_projection(self, outside_corr):
        rng = np.random.default_rng(63)
        space = outside_corr.space
        dom = ChoiceDomain.full(space)
        mu_agg = random_preferences(space.members, rng)
        lifted = lift_aru_to_nonoverlapping(mu_agg, outside_corr)
        lam = constant_composition(
            dom, space, {frozenset("w"): 0.3, frozenset({"z", "w"}): 0.7}
        )
        collapsed = collapse_to_aru(lifted, outside_corr, lam, dom)
        for order, w in mu_agg.items():
            assert collapsed.weights.get(order, 0.0) == pytest.approx(w, abs=1e-12)

    def test_collapse_matches_forward_evaluation(self, outside_corr):
        rng = np.random.default_rng(64)
        space = outside_corr.space
        dom = ChoiceDomain.full(space)
        subsets = [frozenset("z"), frozenset("w"), frozenset({"z", "w"})]
        for _ in range(20):
            mu = random_preferences(outside_corr.ground, rng)
            weights = rng.random(3) + 0.05
            weights /= weights.sum()
            lam = constant_composition(
                dom, space, dict(zip(subsets, (float(w) for w in weights)))
            )
            collapsed = collapse_to_aru(mu, outside_corr, lam, dom)
            forward = forward_evaluate(mu, outside_corr, lam, dom)
            replay = aru_evaluate(collapsed, dom)
            assert replay.max_cell_difference(forward) <= 1e-9
            assert check_aru_rational(forward, space).passed

    def test_pairwise_menus_solve_one_lp(self, solves):
        corr, dom, lam = pairwise_menus()
        prefs = PreferenceDistribution.degenerate(LinearOrder(corr.ground))
        collapse_to_aru(prefs, corr, lam, dom)
        assert solves == [(28, 27)]

    def test_menu_dependent_rejected(self, outside_corr):
        dom = ChoiceDomain.full(outside_corr.space)
        lam = CompositionDistribution(
            {
                frozenset({A0}): {CompositionTuple.of({A0: {"z"}}): 1.0},
                frozenset({X, A0}): {CompositionTuple.of({A0: {"w"}}): 1.0},
            }
        )
        with pytest.raises(NotMenuIndependent):
            collapse_to_aru(delta("z", "x", "w"), outside_corr, lam, dom)
