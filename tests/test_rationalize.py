import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggchoice import (
    AggregateSpace,
    AxiomViolated,
    ChoiceDomain,
    CompositionDistribution,
    DomainClosureViolated,
    GroundMismatch,
    LinearOrder,
    PreferenceDistribution,
    StochasticChoice,
    VariantUnavailable,
    all_orders,
    aru_evaluate,
    bm_polynomial,
    build_lambda_for_menu,
    check_ru_rational,
    extend_preferences,
    forward_evaluate,
    rationalize,
)
from aggchoice import linprog
from aggchoice.rationalize import blocker_id, bottom_id
from aggchoice.tolerances import AXIOM_TOL, LP_TOL, VERIFY_TOL, flow_tol, replay_tol
from conftest import pushed_flow_table, random_preferences, random_vertex_mixture

X, Y, A0, A1 = "x", "y", "a0", "a1"


def delta(*ranking):
    return PreferenceDistribution.degenerate(LinearOrder(ranking))


class TestExtendPreferences:
    def test_two_aggregate_worked_example(self):
        space = AggregateSpace(("y0", "y1"), ("a0", "a1"))
        corr, ext = extend_preferences(delta("y0", "y1"), space, variant="multi")
        (order,) = ext.support
        assert order.ranking == (
            "a0::y0",
            "a1::y0",
            "y0",
            "a0::y1",
            "a1::y1",
            "y1",
            "a0::hi",
            "a1::hi",
            "a0::lo",
            "a1::lo",
        )
        assert all(len(corr.underlying(a)) == 4 for a in ("a0", "a1"))

    def test_single_outside_multi_sizes(self):
        space = AggregateSpace(("y0", "y1"), ("a0",))
        corr, ext = extend_preferences(delta("y0", "y1"), space, variant="multi")
        (order,) = ext.support
        assert order.ranking == (
            "a0::y0",
            "y0",
            "a0::y1",
            "y1",
            "a0::hi",
            "a0::lo",
        )
        assert len(corr.underlying("a0")) == 4  # |atomic| + 2

    def test_outside_variant_smaller(self):
        space = AggregateSpace(("y0", "y1"), ("a0",))
        corr, ext = extend_preferences(
            delta("y0", "y1"), space, variant="outside_option"
        )
        assert len(corr.underlying("a0")) == 3  # |atomic| + 1
        (order,) = ext.support
        assert order.ranking == ("a0::y0", "y0", "a0::y1", "y1", "a0::lo")

    def test_restriction_preserves_atomic_order(self):
        rng = np.random.default_rng(3)
        space = AggregateSpace(("p", "q", "r"), ("a0", "a1"))
        mu = random_preferences(space.atomic, rng)
        _, ext = extend_preferences(mu, space)
        for original, extended in zip(mu.support, ext.support):
            restricted = extended.restrict(space.atomic)
            assert restricted.ranking == original.ranking
            assert ext.weights[extended] == pytest.approx(mu.weights[original])

    def test_ground_mismatch(self):
        space = AggregateSpace(("y0", "y1"), ("a0",))
        with pytest.raises(GroundMismatch):
            extend_preferences(delta("y0", "zzz"), space)

    def test_identity_without_non_atomic_aggregates(self):
        space = AggregateSpace(("y0", "y1", "y2"), ())
        mu = random_preferences(space.atomic, np.random.default_rng(4))
        corr, ext = extend_preferences(mu, space)
        assert ext == mu
        assert all(corr.underlying(y) == (y,) for y in space.atomic)


class TestBuildLambda:
    def test_alternate_proof_initial_mass(self):
        # Ratios: y0 -> 0.6 (the maximum), y1 -> 0.4; chain starts at the
        # bottom element with mass 0.6 and the full set absorbs 0.4.
        space = AggregateSpace(("y0", "y1"), ("a0",))
        rho = StochasticChoice(
            space,
            {
                frozenset({"y0"}): {"y0": 1.0},
                frozenset({"y1"}): {"y1": 1.0},
                frozenset({"y0", "y1"}): {"y0": 0.5, "y1": 0.5},
                frozenset({"y0", "y1", "a0"}): {"y0": 0.3, "y1": 0.2, "a0": 0.5},
            },
        )
        corr, _ = extend_preferences(
            PreferenceDistribution(
                {LinearOrder(("y0", "y1")): 0.5, LinearOrder(("y1", "y0")): 0.5}
            ),
            space,
            variant="outside_option",
        )
        lam = build_lambda_for_menu(rho, frozenset({"y0", "y1", "a0"}), corr)
        by_parts = {t.part("a0"): w for t, w in lam.items()}
        assert by_parts[frozenset({bottom_id("a0")})] == pytest.approx(0.4)
        assert by_parts[frozenset(corr.underlying("a0"))] == pytest.approx(0.4)
        middle = frozenset({bottom_id("a0"), blocker_id("a0", "y1")})
        assert by_parts[middle] == pytest.approx(0.2)

    @pytest.mark.parametrize("variant", ["multi", "outside_option"])
    def test_tuples_stay_in_the_image_and_replay(self, variant):
        # The chain's seed comes from X(a0): an outside_option image has
        # no top element, so no tuple may name one.
        space = AggregateSpace(("y0", "y1"), ("a0",))
        rho = StochasticChoice(
            space,
            {
                frozenset({"y0"}): {"y0": 1.0},
                frozenset({"y1"}): {"y1": 1.0},
                frozenset({"y0", "y1"}): {"y0": 0.5, "y1": 0.5},
                frozenset({"y0", "y1", "a0"}): {"y0": 0.3, "y1": 0.2, "a0": 0.5},
            },
        )
        prefs = PreferenceDistribution(
            {LinearOrder(("y0", "y1")): 0.5, LinearOrder(("y1", "y0")): 0.5}
        )
        corr, ext = extend_preferences(prefs, space, variant=variant)
        menu = frozenset({"y0", "y1", "a0"})
        lam = build_lambda_for_menu(rho, menu, corr)
        assert all(t.part("a0") <= set(corr.underlying("a0")) for t in lam)
        replay = forward_evaluate(
            ext, corr, CompositionDistribution({menu: lam}), rho.domain()
        )
        assert replay.max_cell_difference(rho) <= 1e-12

    def test_equal_rows_concentrate_on_bottom(self):
        space = AggregateSpace(("y0", "y1"), ("a0",))
        rho = StochasticChoice(
            space,
            {
                frozenset({"y0", "y1"}): {"y0": 0.5, "y1": 0.5},
                frozenset({"y0", "y1", "a0"}): {"y0": 0.5, "y1": 0.5, "a0": 0.0},
            },
        )
        corr, _ = extend_preferences(
            PreferenceDistribution(
                {LinearOrder(("y0", "y1")): 0.5, LinearOrder(("y1", "y0")): 0.5}
            ),
            space,
        )
        lam = build_lambda_for_menu(rho, frozenset({"y0", "y1", "a0"}), corr)
        assert lam == {
            next(iter(lam)): 1.0
        } and next(iter(lam)).part("a0") == frozenset({bottom_id("a0")})

    def test_empty_atomic_part_mixture_weights(self):
        space = AggregateSpace((), ("a0", "a1"))
        rho = StochasticChoice(
            space,
            {
                frozenset({"a0", "a1"}): {"a0": 0.7, "a1": 0.3},
            },
        )
        from aggchoice.rationalize import _synthetic_correspondence

        corr = _synthetic_correspondence(space, "multi")
        lam = build_lambda_for_menu(rho, frozenset({"a0", "a1"}), corr)
        assert math.fsum(lam.values()) == pytest.approx(1.0)
        share_a0 = math.fsum(
            w for t, w in lam.items() if len(t.part("a0")) > 1
        )
        assert share_a0 == pytest.approx(0.7)

    def test_unobserved_atomic_part_raises(self):
        # Anchors come only from the observed atomic menu.
        space = AggregateSpace(("y0", "y1"), ("a0",))
        rho = StochasticChoice(
            space,
            {frozenset({"y0", "y1", "a0"}): {"y0": 0.3, "y1": 0.2, "a0": 0.5}},
        )
        corr, _ = extend_preferences(delta("y0", "y1"), space)
        with pytest.raises(DomainClosureViolated):
            build_lambda_for_menu(rho, frozenset({"y0", "y1", "a0"}), corr)

    def test_monotonicity_violation_raises(self):
        space = AggregateSpace(("y0", "y1"), ("a0",))
        rho = StochasticChoice(
            space,
            {
                frozenset({"y0", "y1"}): {"y0": 0.5, "y1": 0.5},
                frozenset({"y0", "y1", "a0"}): {"y0": 0.7, "y1": 0.1, "a0": 0.2},
            },
        )
        corr, _ = extend_preferences(
            PreferenceDistribution(
                {LinearOrder(("y0", "y1")): 0.5, LinearOrder(("y1", "y0")): 0.5}
            ),
            space,
        )
        with pytest.raises(AxiomViolated):
            build_lambda_for_menu(rho, frozenset({"y0", "y1", "a0"}), corr)


class TestRationalize:
    @pytest.mark.parametrize("variant", ["multi", "outside_option"])
    def test_round_trip_single_outside(self, variant, three_space, three_domain):
        rng = np.random.default_rng(50)
        for _ in range(25):
            rho = random_vertex_mixture(three_space, three_domain, rng)
            result = rationalize(rho, three_space, variant=variant)
            assert result.residual <= 1e-9

    def test_round_trip_two_non_atomic(self):
        rng = np.random.default_rng(51)
        space = AggregateSpace((X, Y), (A0, A1))
        dom = ChoiceDomain.full(space)
        for _ in range(15):
            rho = random_vertex_mixture(space, dom, rng)
            result = rationalize(rho, space)
            assert result.residual <= 1e-9
            replay = forward_evaluate(
                result.prefs, result.correspondence, result.composition, dom
            )
            assert replay.max_cell_difference(rho) <= 1e-9

    def test_support_size_bound(self):
        rng = np.random.default_rng(52)
        space = AggregateSpace((X, Y, "z"), (A0, A1))
        dom = ChoiceDomain.full(space)
        rho = random_vertex_mixture(space, dom, rng, max_vertices=10)
        result = rationalize(rho, space)
        for menu, dist in result.composition.per_menu.items():
            atoms = len(menu & space.atomic_set)
            extras = len(menu & space.non_atomic_set)
            assert len(dist) <= extras * (atoms + 1)

    def test_intermediate_chains_are_distributions(self):
        # Every per-menu distribution the construction emits is a simplex
        # point with nonnegative weights (the recursion never overdraws).
        rng = np.random.default_rng(53)
        space = AggregateSpace((X, Y), (A0,))
        dom = ChoiceDomain.full(space)
        for _ in range(20):
            rho = random_vertex_mixture(space, dom, rng)
            result = rationalize(rho, space)
            for dist in result.composition.per_menu.values():
                total = math.fsum(dist.values())
                assert total == pytest.approx(1.0, abs=1e-12)
                assert min(dist.values()) >= -1e-12

    def test_axiom_violation_raises_with_report(self, three_space):
        rho = StochasticChoice(
            three_space,
            {
                frozenset({X, Y}): {X: 0.5, Y: 0.5},
                frozenset({X, Y, A0}): {X: 0.7, Y: 0.1, A0: 0.2},
            },
        )
        with pytest.raises(AxiomViolated) as err:
            rationalize(rho, three_space)
        assert err.value.report is not None
        assert not err.value.report.passed

    def test_succeeds_exactly_when_the_check_passes(self):
        # Vertex mixtures lie on the boundary of the RU polytope (many
        # cells are 0 or tie their atomic menu), so noise near the axioms'
        # tolerance lands on both sides of it.  Full domains take the
        # Block-Marschak route.  Domain-closed partial domains drop some
        # atomic menus with every mixed menu over them, so the check and
        # the construction both take the LP route.  Spaces without
        # non-atomic ids, or without atomic ones, decide the same way.
        full_spaces = [
            AggregateSpace((X, Y), (A0,)),
            AggregateSpace((X, Y, "z"), (A0,)),
            AggregateSpace((X, Y), (A0, A1)),
            AggregateSpace((X, Y, "z"), ()),
            AggregateSpace((X, Y, "z", "w"), ()),
            AggregateSpace((), (A0, A1)),
            AggregateSpace((), (A0, A1, "a2")),
        ]
        partial_spaces = [
            AggregateSpace((X, Y, "z"), (A0,)),
            AggregateSpace((X, Y, "z"), (A0, A1)),
            AggregateSpace((X, Y, "z", "w"), (A0,)),
        ]
        cases = [
            *itertools.product((1e-12, 1e-11, 1e-10), full_spaces, range(20), [0]),
            *itertools.product((1e-11, 3e-10, 3e-9), partial_spaces, range(6), [2]),
        ]
        verdicts = []
        for noise, space, seed, drop in cases:
            dom = ChoiceDomain.full(space)
            rng = np.random.default_rng(seed)
            if drop:
                atomic = [m for m in dom.menus if m <= space.atomic_set]
                dropped = {atomic[i] for i in rng.choice(len(atomic), drop, False)}
                kept = [m for m in dom.menus if m & space.atomic_set not in dropped]
                dom = ChoiceDomain(space, tuple(kept))
            rho = random_vertex_mixture(space, dom, rng)
            table = {}
            for menu in dom.menus:
                row = {
                    a: max(rho.prob(menu, a) + noise * rng.standard_normal(), 0.0)
                    for a in space.sort(menu)
                }
                total = math.fsum(row.values())
                table[menu] = {a: p / total for a, p in row.items()}
            noisy = StochasticChoice(space, table)
            report = check_ru_rational(noisy, space)
            assert report.method == ("lp" if drop else "bm")
            try:
                rationalize(noisy, space)
            except AxiomViolated:
                assert not report.passed, (noise, space, seed)
            else:
                assert report.passed, (noise, space, seed)
            verdicts.append(report.passed)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_certificate_drift_stays_within_the_witness_bound(self, monkeypatch):
        # The atomic LP returns a point whose rows each miss by 0.9 * LP_TOL,
        # as its contract allows.  The renormalized certificate misses the
        # full atomic menu by nearly 2 * LP_TOL, more than VERIFY_TOL; the
        # witness built on it must still replay.  Dropping {y, z} and the
        # mixed menu over it makes the atomic domain partial, so both the
        # check and the construction take the LP route.
        eps = 0.9 * LP_TOL
        space = AggregateSpace((X, Y, "z"), (A0,))
        first = LinearOrder((X, Y, "z"))
        others = [LinearOrder((Y, X, "z")), LinearOrder(("z", X, Y))]
        orders = all_orders(space.atomic)

        def solve(a, b, tol):
            x = np.zeros(a.shape[1])
            x[orders.index(first)] = 1.0 - eps
            for order in others:
                x[orders.index(order)] = eps
            assert np.abs(a @ x - b).max() <= tol
            return linprog.FeasibilityResult(True, x, 0.0)

        monkeypatch.setattr(linprog, "solve_feasibility", solve)
        menus = ChoiceDomain.full(space).menus
        kept = [m for m in menus if m & space.atomic_set != {Y, "z"}]
        rho = aru_evaluate(delta(X, Y, "z", A0), ChoiceDomain(space, tuple(kept)))
        report = check_ru_rational(rho, space)
        assert report.passed and report.method == "lp"
        result = rationalize(rho, space)
        assert VERIFY_TOL < result.residual <= replay_tol(len(space.atomic))

    @given(
        space=st.sampled_from(
            [
                AggregateSpace((X, Y, "z"), (A0,)),
                AggregateSpace((X, Y, "z"), (A0, A1)),
                AggregateSpace((X, Y, "z", "w"), (A0,)),
            ]
        ),
        seed=st.integers(0, 2**32 - 1),
        noise=st.sampled_from((0.0, 1e-11, 3e-10, 3e-9)),
        shift=st.floats(0.0, 1.0),
        excess=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_passing_check_rationalizes_within_the_lp_bound(
        self, space, seed, noise, shift, excess
    ):
        # Noisy vertex mixtures on domain-closed partial domains, as in
        # test_succeeds_exactly_when_the_check_passes.  Each feasible LP
        # point moves shift * 0.45 * LP_TOL of its mass onto one order and
        # adds excess * 0.45 * LP_TOL there, so its rows drift within
        # LP_TOL.  Whenever the check passes, the witness replays within
        # the LP route's bound.
        rng = np.random.default_rng(seed)
        dom = ChoiceDomain.full(space)
        atomic = [m for m in dom.menus if m <= space.atomic_set]
        dropped = {atomic[i] for i in rng.choice(len(atomic), 2, False)}
        kept = [m for m in dom.menus if m & space.atomic_set not in dropped]
        dom = ChoiceDomain(space, tuple(kept))
        rho = random_vertex_mixture(space, dom, rng)
        table = {}
        for menu in dom.menus:
            row = {
                a: max(rho.prob(menu, a) + noise * rng.standard_normal(), 0.0)
                for a in space.sort(menu)
            }
            total = math.fsum(row.values())
            table[menu] = {a: p / total for a, p in row.items()}
        noisy = StochasticChoice(space, table)
        solve = linprog.solve_feasibility

        def drifting(a, b, tol):
            result = solve(a, b, tol)
            if not result.feasible:
                return result
            t, u = shift * 0.45 * tol, excess * 0.45 * tol
            x = (1.0 - t) * result.x
            x[seed % len(x)] += t + u
            assert np.abs(a @ x - b).max() <= tol
            return linprog.FeasibilityResult(True, x, result.residual)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linprog, "solve_feasibility", drifting)
            report = check_ru_rational(noisy, space)
            assert report.method == "lp"
            if not report.passed:
                with pytest.raises(AxiomViolated):
                    rationalize(noisy, space)
                return
            result = rationalize(noisy, space)
        assert result.residual <= replay_tol(len(space.atomic))

    @given(
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        push=st.floats(0.5, 0.99),
        outside_share=st.floats(0.0, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_passing_check_rationalizes_within_the_flow_bound(
        self, n, seed, push, outside_share
    ):
        # Full atomic domains whose Block-Marschak sums reach about
        # -push * AXIOM_TOL.  Whenever the check passes, the witness
        # replays within the flow route's bound.
        space = AggregateSpace(tuple(f"i{k}" for k in range(n)), (A0,))
        rho = pushed_flow_table(space, np.random.default_rng(seed), push, outside_share)
        report = check_ru_rational(rho, space)
        assert report.method == "bm"
        if not report.passed:
            with pytest.raises(AxiomViolated):
                rationalize(rho, space)
            return
        result = rationalize(rho, space)
        assert result.residual <= replay_tol(n, flow_tol(n))

    def test_full_atomic_domain_needs_no_lp(self, monkeypatch):
        calls = []
        solve = linprog.solve_feasibility

        def spy(a, b, tol):
            calls.append(a.shape)
            return solve(a, b, tol)

        monkeypatch.setattr(linprog, "solve_feasibility", spy)
        space = AggregateSpace((X, Y, "z", "w"), (A0,))
        rho = random_vertex_mixture(
            space, ChoiceDomain.full(space), np.random.default_rng(8)
        )
        result = rationalize(rho, space)
        assert calls == []
        assert result.residual <= VERIFY_TOL

    def test_block_marschak_sum_within_the_slack(self):
        # Under x y z: 0.1, x z y: 0.1, z x y: 0.4, y x z: 0.4 the sum
        # q(x, {x}) is 0.  Moving 0.9 * AXIOM_TOL of {x, y, z} from x to
        # y makes it -0.9 * AXIOM_TOL: the check passes, and the flow
        # carries 0 on that edge.
        space = AggregateSpace((X, Y, "z"), (A0,))
        mu = PreferenceDistribution(
            {
                LinearOrder((X, Y, "z", A0)): 0.1,
                LinearOrder((X, "z", Y, A0)): 0.1,
                LinearOrder(("z", X, Y, A0)): 0.4,
                LinearOrder((Y, X, "z", A0)): 0.4,
            }
        )
        exact = aru_evaluate(mu, ChoiceDomain.full(space))
        eps = 0.9 * AXIOM_TOL
        menu = frozenset({X, Y, "z"})
        row = exact.row(menu)
        row[X] -= eps
        row[Y] += eps
        rho = StochasticChoice(space, {**exact.table, menu: row})
        value = bm_polynomial(rho, space, frozenset({X}), X)
        assert -AXIOM_TOL < value <= -0.8 * AXIOM_TOL
        report = check_ru_rational(rho, space)
        assert report.passed and report.method == "bm"
        result = rationalize(rho, space)
        assert eps / 2 < result.residual <= replay_tol(3, flow_tol(3))

    def test_variant_unavailable(self):
        space = AggregateSpace((X,), (A0, A1))
        dom = ChoiceDomain.full(space)
        rho = random_vertex_mixture(space, dom, np.random.default_rng(1))
        with pytest.raises(VariantUnavailable):
            rationalize(rho, space, variant="outside_option")

    def test_aru_data_rationalizes(self, three_space, three_domain):
        rng = np.random.default_rng(54)
        mu = random_preferences(three_space.members, rng)
        rho = aru_evaluate(mu, three_domain)
        result = rationalize(rho, three_space)
        assert result.residual <= 1e-9

    def test_metadata_records_construction(self, three_space, three_domain):
        rho = random_vertex_mixture(
            three_space, three_domain, np.random.default_rng(2)
        )
        result = rationalize(rho, three_space, variant="outside_option")
        assert result.metadata["variant"] == "outside_option"
        assert result.metadata["special_ids"][A0]["top"] is None
        assert result.metadata["special_ids"][A0]["bottom"] == bottom_id(A0)

    def test_no_atomic_aggregates(self):
        space = AggregateSpace((), (A0, A1))
        dom = ChoiceDomain.full(space)
        rho = StochasticChoice(
            space,
            {
                frozenset({A0}): {A0: 1.0},
                frozenset({A1}): {A1: 1.0},
                frozenset({A0, A1}): {A0: 0.25, A1: 0.75},
            },
        )
        result = rationalize(rho, space)
        assert result.residual <= 1e-9

    def test_step_locality(self):
        # After the chain fixes an atomic alternative's probability, later
        # steps leave it unchanged: verify by evaluating partial chains.
        space = AggregateSpace(("y0", "y1", "y2"), ("a0",))
        dom = ChoiceDomain.full(space)
        rho = random_vertex_mixture(space, dom, np.random.default_rng(55))
        result = rationalize(rho, space)
        menu = frozenset({"y0", "y1", "y2", "a0"})
        replay = forward_evaluate(
            result.prefs, result.correspondence, result.composition, dom
        )
        for y in ("y0", "y1", "y2"):
            assert replay.prob(menu, y) == pytest.approx(
                rho.prob(menu, y), abs=1e-9
            )
