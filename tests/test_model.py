import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggchoice import (
    AggregateSpace,
    AggregationCorrespondence,
    AggregateNotInMenu,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    GroundMismatch,
    InvalidProbability,
    ItemNotInMenu,
    LinearOrder,
    MenuCollectionFamily,
    MissingLambdaForMenu,
    PreferenceDistribution,
    StochasticChoice,
    aru_evaluate,
    forward_evaluate,
    rum_prob,
    rum_row,
    vertex_choice,
)
from conftest import random_composition, random_preferences

X, Y, A0 = "x", "y", "a0"


def delta(*ranking):
    return PreferenceDistribution.degenerate(LinearOrder(ranking))


class TestRumProb:
    def test_degenerate_order(self):
        assert rum_prob(delta("x", "y", "z"), {"y", "z"}, "y") == 1.0

    def test_symmetric_mixture(self):
        mu = PreferenceDistribution(
            {LinearOrder(("x", "y", "z")): 0.5, LinearOrder(("z", "y", "x")): 0.5}
        )
        assert rum_prob(mu, {"x", "z"}, "x") == pytest.approx(0.5, abs=1e-15)

    def test_cyclic_support(self):
        # Brute force over the three support orders: x tops only the first.
        mu = PreferenceDistribution(
            {
                LinearOrder(("x", "y", "z")): 1 / 3,
                LinearOrder(("y", "z", "x")): 1 / 3,
                LinearOrder(("z", "x", "y")): 1 / 3,
            }
        )
        assert rum_prob(mu, {"x", "y", "z"}, "x") == pytest.approx(1 / 3, abs=1e-15)

    def test_item_not_in_menu(self):
        with pytest.raises(ItemNotInMenu):
            rum_prob(delta("x", "y"), {"y"}, "x")

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            rum_prob(delta("x", "y"), {"x", "q"}, "x")

    def test_row_sums_to_one(self):
        rng = np.random.default_rng(11)
        mu = random_preferences(("a", "b", "c", "d"), rng)
        row = rum_row(mu, {"a", "c", "d"})
        assert math.fsum(row.values()) == pytest.approx(1.0, abs=1e-12)


class TestValidation:
    def test_negative_probability_rejected(self, three_space):
        with pytest.raises(InvalidProbability):
            StochasticChoice(
                three_space, {frozenset({X, Y}): {X: 1.1, Y: -0.1}}
            )

    def test_bad_total_rejected(self, three_space):
        with pytest.raises(InvalidProbability):
            StochasticChoice(three_space, {frozenset({X, Y}): {X: 0.55, Y: 0.55}})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, three_space, bad):
        with pytest.raises(InvalidProbability, match="non-finite"):
            StochasticChoice(three_space, {frozenset({X, Y}): {X: bad, Y: 1.0}})

    def test_outside_menu_rejected(self, three_space):
        with pytest.raises(InvalidProbability):
            StochasticChoice(
                three_space, {frozenset({X}): {X: 0.5, Y: 0.5}}
            )

    @given(drift=st.floats(-9e-13, 9e-13))
    @settings(max_examples=30, deadline=None)
    def test_renormalizes_within_tolerance(self, drift):
        space = AggregateSpace(("x", "y"), ())
        rho = StochasticChoice(
            space, {frozenset({X, Y}): {X: 0.25 + drift, Y: 0.75}}
        )
        assert math.fsum(rho.row({X, Y}).values()) == pytest.approx(1.0, abs=1e-15)

    def test_preference_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            PreferenceDistribution(
                {LinearOrder(("x", "y")): 0.5, LinearOrder(("x", "z")): 0.5}
            )


class TestDomain:
    def test_full_domain_size(self, three_space):
        assert len(ChoiceDomain.full(three_space).menus) == 7

    def test_all_containing(self, three_space):
        dom = ChoiceDomain.all_containing(three_space, A0)
        assert len(dom.menus) == 4
        assert all(A0 in m for m in dom.menus)

    def test_menu_order_deterministic(self, three_space):
        dom = ChoiceDomain.full(three_space)
        keys = [three_space.menu_key(m) for m in dom.menus]
        assert keys == sorted(keys)


class TestForwardEvaluate:
    def outside_world(self):
        space = AggregateSpace(("x",), ("a0",))
        corr = AggregationCorrespondence.identity_atomic(space, {"a0": ("z", "w")})
        return space, corr, ChoiceDomain.full(space)

    def lam(self, domain, mapping):
        per_menu = {}
        for menu in domain.menus:
            if A0 not in menu:
                continue
            per_menu[menu] = {
                CompositionTuple.of({A0: s}): w for s, w in mapping.items()
            }
        return CompositionDistribution(per_menu)

    def test_split_composition(self):
        space, corr, dom = self.outside_world()
        lam = self.lam(dom, {frozenset("z"): 0.5, frozenset("w"): 0.5})
        rho = forward_evaluate(delta("z", "x", "w"), corr, lam, dom)
        assert rho.prob({X, A0}, X) == pytest.approx(0.5, abs=1e-15)

    def test_full_composition_blocks(self):
        space, corr, dom = self.outside_world()
        lam = self.lam(dom, {frozenset({"z", "w"}): 1.0})
        rho = forward_evaluate(delta("z", "x", "w"), corr, lam, dom)
        assert rho.prob({X, A0}, X) == 0.0

    def test_non_overlapping_ignores_composition(self):
        space, corr, dom = self.outside_world()
        for mapping in (
            {frozenset("z"): 1.0},
            {frozenset("w"): 1.0},
            {frozenset({"z", "w"}): 0.3, frozenset("z"): 0.7},
        ):
            rho = forward_evaluate(delta("x", "z", "w"), corr, self.lam(dom, mapping), dom)
            assert rho.prob({X, A0}, X) == 1.0

    def test_missing_lambda(self):
        space, corr, dom = self.outside_world()
        lam = CompositionDistribution(
            {frozenset({A0}): {CompositionTuple.of({A0: {"z"}}): 1.0}}
        )
        with pytest.raises(MissingLambdaForMenu):
            forward_evaluate(delta("x", "z", "w"), corr, lam, dom)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        space = AggregateSpace(("x", "y"), ("a0", "a1"))
        corr = AggregationCorrespondence.identity_atomic(
            space, {"a0": ("p", "q"), "a1": ("r", "s")}
        )
        dom = ChoiceDomain.full(space)
        for _ in range(10):
            mu = random_preferences(corr.ground, rng)
            lam = random_composition(corr, dom, rng)
            rho = forward_evaluate(mu, corr, lam, dom)
            for menu in dom.menus:
                assert math.fsum(rho.row(menu).values()) == pytest.approx(
                    1.0, abs=1e-12
                )
                assert min(rho.row(menu).values()) >= 0.0

    def test_affine_in_composition(self):
        rng = np.random.default_rng(6)
        space = AggregateSpace(("x", "y"), ("a0",))
        corr = AggregationCorrespondence.identity_atomic(space, {"a0": ("z", "w")})
        dom = ChoiceDomain.full(space)
        mu = random_preferences(corr.ground, rng)
        lam1 = random_composition(corr, dom, rng)
        lam2 = random_composition(corr, dom, rng)
        for alpha in (0.0, 0.25, 0.7, 1.0):
            blended = CompositionDistribution(
                {
                    menu: {
                        t: alpha * lam1.for_menu(menu).get(t, 0.0)
                        + (1 - alpha) * lam2.for_menu(menu).get(t, 0.0)
                        for t in set(lam1.for_menu(menu)) | set(lam2.for_menu(menu))
                    }
                    for menu in lam1.menus()
                }
            )
            direct = forward_evaluate(mu, corr, blended, dom)
            mix1 = forward_evaluate(mu, corr, lam1, dom)
            mix2 = forward_evaluate(mu, corr, lam2, dom)
            for menu in dom.menus:
                for a in menu:
                    expected = alpha * mix1.prob(menu, a) + (1 - alpha) * mix2.prob(
                        menu, a
                    )
                    assert direct.prob(menu, a) == pytest.approx(expected, abs=1e-12)

    def test_affine_in_preferences(self):
        rng = np.random.default_rng(7)
        space = AggregateSpace(("x", "y"), ("a0",))
        corr = AggregationCorrespondence.identity_atomic(space, {"a0": ("z", "w")})
        dom = ChoiceDomain.full(space)
        lam = random_composition(corr, dom, rng)
        mu1 = random_preferences(corr.ground, rng)
        mu2 = random_preferences(corr.ground, rng)
        alpha = 0.4
        blended = PreferenceDistribution.mixture([(mu1, alpha), (mu2, 1 - alpha)])
        direct = forward_evaluate(blended, corr, lam, dom)
        part1 = forward_evaluate(mu1, corr, lam, dom)
        part2 = forward_evaluate(mu2, corr, lam, dom)
        for menu in dom.menus:
            for a in menu:
                expected = alpha * part1.prob(menu, a) + (1 - alpha) * part2.prob(
                    menu, a
                )
                assert direct.prob(menu, a) == pytest.approx(expected, abs=1e-12)

    def test_atomic_menus_independent_of_composition(self):
        rng = np.random.default_rng(8)
        space = AggregateSpace(("x", "y"), ("a0",))
        corr = AggregationCorrespondence.identity_atomic(space, {"a0": ("z", "w")})
        dom = ChoiceDomain.full(space)
        mu = random_preferences(corr.ground, rng)
        lam1 = random_composition(corr, dom, rng)
        lam2 = random_composition(corr, dom, rng)
        rho1 = forward_evaluate(mu, corr, lam1, dom)
        rho2 = forward_evaluate(mu, corr, lam2, dom)
        for menu in dom.menus:
            if menu & space.non_atomic_set:
                continue
            assert rho1.row(menu) == rho2.row(menu)
            for a in menu:
                assert rho1.prob(menu, a) == pytest.approx(
                    rum_prob(mu, menu, a), abs=1e-12
                )


class TestAruEvaluate:
    def test_degenerate(self, three_space, three_domain):
        rho = aru_evaluate(delta(X, Y, A0), three_domain)
        for menu in three_domain.menus:
            if X in menu:
                assert rho.prob(menu, X) == 1.0

    def test_symmetric(self, three_space, three_domain):
        mu = PreferenceDistribution(
            {LinearOrder((X, Y, A0)): 0.5, LinearOrder((Y, X, A0)): 0.5}
        )
        rho = aru_evaluate(mu, three_domain)
        assert rho.prob({X, Y, A0}, X) == pytest.approx(0.5, abs=1e-15)

    def test_uniform_over_all_orders(self, three_space, three_domain):
        import itertools

        orders = [
            LinearOrder(p) for p in itertools.permutations(three_space.members)
        ]
        mu = PreferenceDistribution({o: 1 / 6 for o in orders})
        rho = aru_evaluate(mu, three_domain)
        for a in (X, Y, A0):
            assert rho.prob({X, Y, A0}, a) == pytest.approx(1 / 3, abs=1e-12)

    def test_ground_mismatch(self, three_domain):
        with pytest.raises(GroundMismatch):
            aru_evaluate(delta(X, Y), three_domain)


class TestVertexChoice:
    def test_basic_family(self, three_space, three_domain):
        fam = MenuCollectionFamily.single(A0, [frozenset({X, A0})])
        rho = vertex_choice(LinearOrder((X, Y, A0)), fam, three_domain)
        assert rho.prob({X, A0}, A0) == 1.0
        assert rho.prob({X, Y, A0}, X) == 1.0

    def test_empty_family_equals_aru(self, three_space, three_domain):
        order = LinearOrder((Y, X, A0))
        rho = vertex_choice(order, MenuCollectionFamily.empty(), three_domain)
        aru = aru_evaluate(PreferenceDistribution.degenerate(order), three_domain)
        assert rho.max_cell_difference(aru) == 0.0

    def test_two_aggregate_families(self):
        space = AggregateSpace(("x", "y"), ("a0", "a1"))
        dom = ChoiceDomain.full(space)
        fam = MenuCollectionFamily(
            {
                "a0": frozenset({frozenset({"x", "a0", "a1"})}),
                "a1": frozenset({frozenset({"y", "a1"})}),
            }
        )
        rho = vertex_choice(LinearOrder(("x", "y", "a0", "a1")), fam, dom)
        assert rho.prob({"x", "a0", "a1"}, "a0") == 1.0
        assert rho.prob({"y", "a1"}, "a1") == 1.0
        assert rho.prob({"x", "y"}, "x") == 1.0

    def test_zero_one_output(self, three_space, three_domain):
        rng = np.random.default_rng(9)
        from conftest import random_vertex

        for _ in range(20):
            v = random_vertex(three_space, three_domain, rng)
            for _, _, p in v.cells():
                assert p in (0.0, 1.0)

    def test_aggregate_not_in_menu(self, three_space, three_domain):
        fam = MenuCollectionFamily.single(A0, [frozenset({X, Y})])
        with pytest.raises(AggregateNotInMenu):
            vertex_choice(LinearOrder((X, Y, A0)), fam, three_domain)

    def test_disjointness_enforced(self):
        menu = frozenset({"x", "a0", "a1"})
        with pytest.raises(ValueError):
            MenuCollectionFamily({"a0": frozenset({menu}), "a1": frozenset({menu})})


def test_order_enumeration_cap():
    from aggchoice import DomainTooLarge
    from aggchoice.model import all_orders

    assert len(all_orders(tuple("abcd"))) == 24
    with pytest.raises(DomainTooLarge):
        all_orders(tuple("abcdefghi"))  # nine ids exceeds the cap


def test_partial_lp_cap():
    from aggchoice import DomainTooLarge, check_partial_ru

    space = AggregateSpace(tuple(f"i{k}" for k in range(8)), ())
    # One of the 255 atomic menus: a partial domain takes the LP route.
    rho = StochasticChoice(space, {frozenset({"i0"}): {"i0": 1.0}})
    with pytest.raises(DomainTooLarge):
        check_partial_ru(rho, space)


def test_aru_check_cap():
    from aggchoice import DomainTooLarge, check_aru_rational

    ids = tuple(f"i{k}" for k in range(9))
    space = AggregateSpace(ids, ())
    rho = StochasticChoice(space, {frozenset(ids): {a: 1 / 9 for a in ids}})
    with pytest.raises(DomainTooLarge):
        check_aru_rational(rho, space)


@given(weights=st.lists(st.floats(0.01, 10), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_preference_distribution_normalizes(weights):
    import itertools

    total = sum(weights)
    orders = list(itertools.permutations(("a", "b", "c")))
    dist = PreferenceDistribution(
        {
            LinearOrder(o): w / total
            for o, w in zip(orders, weights)
        }
    )
    assert math.fsum(dist.weights.values()) == pytest.approx(1.0, abs=1e-12)
