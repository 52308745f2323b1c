import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggchoice import (
    AggregateSpace,
    AggregationCorrespondence,
    ChoiceDomain,
    CompositionDistribution,
    CompositionTuple,
    LinearOrder,
    MenuCollectionFamily,
    NotRURational,
    PreferenceDistribution,
    StochasticChoice,
    TooLarge,
    approx_caratheodory,
    aru_distance,
    aru_evaluate,
    build_nesting_counterexample,
    check_aru_rational,
    check_ru_rational,
    forward_evaluate,
    grid_oracle_ru_n,
    ru_vertex_lmo,
    vertex_choice,
    vertex_count_lower_bound,
)
from aggchoice.geometry import _interior_grid
from aggchoice.model import all_orders
from aggchoice.tolerances import GRID_REPLAY_TOL
from conftest import (
    random_preferences,
    random_table,
    random_vertex,
    random_vertex_mixture,
)

X, Y, A0 = "x", "y", "a0"


def exhaustive_projection(rho, space):
    """Exact ARU projection by enumerating active vertex subsets.

    Independent oracle for the Frank-Wolfe path: for every subset of
    vertices, solve the equality-constrained least squares and keep the
    best feasible solution.
    """
    domain = rho.domain()
    cells = domain.cells()
    orders = all_orders(space.members)
    vertices = np.array(
        [[1.0 if o.best(m) == a else 0.0 for (m, a) in cells] for o in orders]
    )
    target = np.array([rho.prob(m, a) for m, a in cells])
    best = None
    for size in range(1, len(orders) + 1):
        for subset in itertools.combinations(range(len(orders)), size):
            sub = vertices[list(subset)]
            k = len(subset)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2 * sub @ sub.T
            kkt[:k, -1] = 1
            kkt[-1, :k] = 1
            rhs = np.concatenate([2 * sub @ target, [1.0]])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
            if (sol >= -1e-9).all():
                weights = np.clip(sol, 0, None)
                weights /= weights.sum()
                objective = float(((target - weights @ sub) ** 2).sum())
                if best is None or objective < best:
                    best = objective
    return best


class TestAruDistance:
    def test_aru_member_is_interior(self, three_space, three_domain):
        rng = np.random.default_rng(41)
        mu = random_preferences(three_space.members, rng)
        rho = aru_evaluate(mu, three_domain)
        result = aru_distance(rho, three_space)
        assert result.squared_distance <= 1e-10
        assert not result.hit_iteration_cap

    def test_menu_effect_vertex_against_exhaustive_oracle(
        self, three_space, three_domain
    ):
        fam = MenuCollectionFamily.single(A0, [frozenset({X, A0})])
        rho = vertex_choice(LinearOrder((X, Y, A0)), fam, three_domain)
        result = aru_distance(rho, three_space)
        oracle = exhaustive_projection(rho, three_space)
        assert result.squared_distance == pytest.approx(oracle, abs=1e-9)
        assert result.squared_distance > 1e-4

    def test_random_tables_against_exhaustive_oracle(
        self, three_space, three_domain
    ):
        rng = np.random.default_rng(42)
        for _ in range(10):
            rho = random_table(three_space, three_domain, rng)
            result = aru_distance(rho, three_space)
            oracle = exhaustive_projection(rho, three_space)
            assert result.squared_distance == pytest.approx(oracle, abs=1e-8)

    def test_projection_consistency(self, three_space, three_domain):
        rng = np.random.default_rng(43)
        rho = random_table(three_space, three_domain, rng)
        result = aru_distance(rho, three_space)
        cells = three_domain.cells()
        gap = math.fsum(
            (rho.prob(m, a) - result.projection.prob(m, a)) ** 2 for m, a in cells
        )
        assert result.squared_distance == pytest.approx(gap, abs=1e-12)
        total = math.fsum(result.mixture.values())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_objective_monotone_across_iterations(self, three_space, three_domain):
        rng = np.random.default_rng(49)
        for _ in range(10):
            rho = random_table(three_space, three_domain, rng)
            trace = aru_distance(rho, three_space).objective_trace
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_zero_iff_aru_rational(self, three_space, three_domain):
        rng = np.random.default_rng(44)
        for trial in range(60):
            if trial % 2 == 0:
                rho = random_table(three_space, three_domain, rng)
            else:
                rho = aru_evaluate(
                    random_preferences(three_space.members, rng), three_domain
                )
            near_zero = aru_distance(rho, three_space).squared_distance <= 1e-8
            assert near_zero == check_aru_rational(rho, three_space).passed


class TestLmo:
    def brute_force(self, gradient, space, domain):
        best = None
        for order in all_orders(space.members):
            non_atomic_menus = [
                m for m in domain.menus if m & space.non_atomic_set
            ]
            choices_per_menu = []
            for menu in domain.menus:
                options = [order.best(menu)]
                options.extend(a for a in space.sort(menu) if a in space.non_atomic_set)
                choices_per_menu.append((menu, options))
            for combo in itertools.product(
                *[options for _, options in choices_per_menu]
            ):
                value = math.fsum(
                    gradient.get((menu, chosen), 0.0)
                    for (menu, _), chosen in zip(choices_per_menu, combo)
                )
                if best is None or value < best:
                    best = value
        return best

    def test_matches_brute_force(self, three_space, three_domain):
        rng = np.random.default_rng(45)
        for _ in range(100):
            gradient = {
                (m, a): float(rng.normal())
                for m in three_domain.menus
                for a in m
            }
            order, family = ru_vertex_lmo(gradient, three_space, three_domain)
            value = math.fsum(
                gradient.get(
                    (m, family.deviation_target(m) or order.best(m)), 0.0
                )
                for m in three_domain.menus
            )
            assert value == pytest.approx(
                self.brute_force(gradient, three_space, three_domain), abs=1e-9
            )

    def test_zero_gradient_tie_break(self, three_space, three_domain):
        order, family = ru_vertex_lmo({}, three_space, three_domain)
        assert order.ranking == three_space.members
        assert not family.deviation_menus()

    def test_optimal_at_known_vertex(self, three_space, three_domain):
        rng = np.random.default_rng(46)
        v = random_vertex(three_space, three_domain, rng)
        gradient = {
            (m, a): -v.prob(m, a) for m in three_domain.menus for a in m
        }
        order, family = ru_vertex_lmo(gradient, three_space, three_domain)
        chosen = vertex_choice(order, family, three_domain)
        self_score = -math.fsum(p * p for _, _, p in v.cells())
        found_score = math.fsum(
            gradient[(m, a)] * chosen.prob(m, a)
            for m in three_domain.menus
            for a in m
        )
        assert found_score <= self_score + 1e-12


class TestApproxCaratheodory:
    def test_vertex_at_k_one(self, three_space, three_domain):
        v = random_vertex(three_space, three_domain, np.random.default_rng(1))
        result = approx_caratheodory(v, 1, three_space)
        assert result.achieved == pytest.approx(0.0, abs=1e-15)

    def test_bound_holds_across_k(self):
        rng = np.random.default_rng(47)
        space = AggregateSpace(("y1", "y2", "y3"), (A0,))
        dom = ChoiceDomain.full(space)
        for _ in range(15):
            rho = random_vertex_mixture(space, dom, rng, max_vertices=20)
            for k in (1, 2, 4, 10):
                result = approx_caratheodory(rho, k, space)
                assert result.achieved <= result.bound + 1e-12
                assert result.bound == pytest.approx(1.0 / k)
                assert result.certifies_ru_n == k + 1

    def test_ten_percent_claim(self):
        rng = np.random.default_rng(48)
        space = AggregateSpace(("y1", "y2", "y3"), (A0,))
        dom = ChoiceDomain.full(space)
        rho = random_vertex_mixture(space, dom, rng, max_vertices=20)
        result = approx_caratheodory(rho, 10, space)
        assert result.achieved <= 0.1 + 1e-12

    def test_uniform_weights(self, three_space, three_domain):
        rho = random_vertex_mixture(
            three_space, three_domain, np.random.default_rng(2)
        )
        result = approx_caratheodory(rho, 4, three_space)
        assert result.weights == (0.25,) * 4
        assert len(result.vertices) == 4

    def test_rejects_non_ru_data(self, three_space):
        rho = StochasticChoice(
            three_space,
            {
                frozenset({X, Y}): {X: 0.5, Y: 0.5},
                frozenset({X, Y, A0}): {X: 0.8, Y: 0.1, A0: 0.1},
            },
        )
        with pytest.raises(NotRURational):
            approx_caratheodory(rho, 2, three_space)


class TestVertexCounts:
    def test_small_values(self):
        assert vertex_count_lower_bound(2) == (8, 1)
        assert vertex_count_lower_bound(3) == (96, 4)

    @given(n=st.integers(1, 16))
    @settings(max_examples=32, deadline=None)
    def test_formula_consistency(self, n):
        count, ratio = vertex_count_lower_bound(n)
        exponent = 2**n - math.comb(n, 2) - 1
        assert count == math.factorial(n) * 2**exponent
        assert ratio == 2**exponent // (n + 1)
        assert 0 <= 2**exponent - ratio * (n + 1) < n + 1  # exact floor

    def test_n6_ratio_exceeds_double_exponential(self):
        _, ratio = vertex_count_lower_bound(6)
        assert ratio >= 2**32
        assert ratio == 2 ** (2**6 - 15 - 1) // 7

    def test_exact_integers(self):
        count, ratio = vertex_count_lower_bound(10)
        assert isinstance(count, int) and isinstance(ratio, int)
        assert count == math.factorial(10) * 2 ** (2**10 - 45 - 1)


class TestNestingCounterexample:
    def test_m2_rows(self):
        space = AggregateSpace(("y1", "y2"), (A0,))
        rho = build_nesting_counterexample(space)
        assert rho.row({"y1", "y2"}) == {"y1": 0.5, "y2": 0.5}
        assert rho.row({"y1", A0}) == {"y1": 0.0, A0: 1.0}
        assert rho.row({"y1", "y2", A0}) == {"y1": 0.5, "y2": 0.0, A0: 0.5}
        assert rho.row({"y2", A0}) == {"y2": 1.0, A0: 0.0}

    @pytest.mark.parametrize("m", [2, 3])
    def test_passes_ru_check(self, m):
        space = AggregateSpace(tuple(f"y{i}" for i in range(1, m + 1)), (A0,))
        rho = build_nesting_counterexample(space)
        assert check_ru_rational(rho, space).passed

    @pytest.mark.parametrize("m, checked", [(2, 25), (3, 351)])
    def test_not_found_at_m(self, m, checked):
        space = AggregateSpace(tuple(f"y{i}" for i in range(1, m + 1)), (A0,))
        rho = build_nesting_counterexample(space)
        result = grid_oracle_ru_n(rho, m)
        assert not result.found
        # The full search visits the whole candidate family.
        assert result.candidates_checked == checked

    def test_found_at_m_plus_one_for_m2(self):
        space = AggregateSpace(("y1", "y2"), (A0,))
        rho = build_nesting_counterexample(space)
        result = grid_oracle_ru_n(rho, 3)
        assert result.found
        assert result.witness.residual <= 1e-7


class TestGridOracle:
    def footnote_vertices(self, three_space, three_domain):
        order1 = LinearOrder((X, Y, A0))
        order2 = LinearOrder((Y, X, A0))
        fam1 = MenuCollectionFamily.single(A0, [frozenset({X, A0})])
        fam2 = MenuCollectionFamily.single(
            A0, [frozenset({X, A0}), frozenset({X, Y, A0})]
        )
        return (
            vertex_choice(order1, fam1, three_domain),
            vertex_choice(order2, fam2, three_domain),
        )

    def test_aru_data_found(self, three_space, three_domain):
        mu = random_preferences(three_space.members, np.random.default_rng(3))
        rho = aru_evaluate(mu, three_domain)
        result = grid_oracle_ru_n(rho, 2)
        assert result.found
        replay = forward_evaluate(
            result.witness.prefs,
            result.witness.correspondence,
            result.witness.composition,
            rho.domain(),
        )
        assert replay.max_cell_difference(rho) <= 1e-6

    def test_menu_effect_vertices_found(self, three_space, three_domain):
        v1, v2 = self.footnote_vertices(three_space, three_domain)
        assert grid_oracle_ru_n(v1, 2).found
        assert grid_oracle_ru_n(v2, 2).found

    def test_footnote_mixture_not_found(self, three_space, three_domain):
        v1, v2 = self.footnote_vertices(three_space, three_domain)
        mix = StochasticChoice(
            three_space,
            {
                m: {a: 0.5 * v1.prob(m, a) + 0.5 * v2.prob(m, a) for a in m}
                for m in three_domain.menus
            },
        )
        assert check_ru_rational(mix, three_space).passed
        result = grid_oracle_ru_n(mix, 2)
        assert not result.found

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("steps", [3, 10, 50])
    def test_interior_grid(self, dim, steps):
        points = _interior_grid(dim, steps)
        assert len(points) == len(set(points)) == math.comb(steps - 1, dim - 1)
        for point in points:
            assert len(point) == dim and min(point) > 0.0
            assert math.fsum(point) == pytest.approx(1.0, abs=1e-15)

    def test_witness_mixing_two_subsets(self):
        # The outside aggregate stands for two ids, and the menus {x, a0}
        # and {y, a0} each mix two of its subsets at multiples of 0.02.
        # Each of those menus has one value cell, so the oracle searches
        # supports of one subset (3 candidates) and of two, at the 49
        # interior weights of the grid (3 * 49): 150 candidates each.
        # {x, y, a0} has only zero cells (3 candidates), {a0} one.
        space = AggregateSpace((X, Y), (A0,))
        corr = AggregationCorrespondence.identity_atomic(space, {A0: ("o0", "o1")})
        domain = ChoiceDomain.full(space)
        subsets = [frozenset({"o0"}), frozenset({"o1"}), frozenset({"o0", "o1"})]
        rng = np.random.default_rng(39)
        prefs = random_preferences(corr.ground, rng, int(rng.integers(1, 3)))
        per_menu = {frozenset({A0}): {CompositionTuple.of({A0: subsets[2]}): 1.0}}
        for menu in domain.menus:
            if A0 in menu and len(menu) > 1:
                i, j = rng.choice(3, 2, replace=False)
                w = 0.02 * int(rng.integers(1, 50))
                per_menu[menu] = {
                    CompositionTuple.of({A0: subsets[i]}): w,
                    CompositionTuple.of({A0: subsets[j]}): 1.0 - w,
                }
        composition = CompositionDistribution(per_menu)
        rho = forward_evaluate(prefs, corr, composition, domain)
        result = grid_oracle_ru_n(rho, 2)
        assert result.found
        found = result.witness.composition
        assert max(len(found.for_menu(m)) for m in found.menus()) == 2
        w = result.witness
        replay = forward_evaluate(w.prefs, w.correspondence, found, domain)
        assert replay.max_cell_difference(rho) <= GRID_REPLAY_TOL
        assert result.candidates_checked <= 1 + 3 + 150 + 150

    def test_caps_enforced(self):
        space = AggregateSpace(("a", "b", "c", "d"), (A0,))
        rho = build_nesting_counterexample(space)
        with pytest.raises(TooLarge):
            grid_oracle_ru_n(rho, 2)

    def test_budget_fires_before_any_candidate_is_built(self, monkeypatch):
        # Generic data at the documented caps: every cell of the grand
        # menu is a value cell, so its 687,036 candidates alone would
        # hold about 12 GB of LP rows.
        import aggchoice.geometry as geometry

        def no_candidates(*args):
            raise AssertionError("a candidate was built")

        space = AggregateSpace(("y1", "y2", "y3"), (A0,))
        orders = [LinearOrder(p) for p in itertools.permutations(space.members)]
        weights = np.random.default_rng(0).random(24) + 0.05
        prefs = PreferenceDistribution(dict(zip(orders, weights / weights.sum())))
        rho = aru_evaluate(prefs, ChoiceDomain.full(space))
        monkeypatch.setattr(geometry, "_interior_grid", no_candidates)
        with pytest.raises(TooLarge, match="oracle budget"):
            grid_oracle_ru_n(rho, 3)
