import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggchoice.geometry

from aggchoice import (
    AggregateSpace,
    CompositionDistribution,
    CompositionTuple,
    InvalidTuple,
    LinearOrder,
    MissingLambdaForMenu,
    MissingUtility,
    NoConvergence,
    NotIdentified,
    PreferenceDistribution,
    StochasticChoice,
    aru_distance,
    bias,
    fit_aggregated_logit,
    forward_evaluate,
    logit_choice,
    minmax_bias,
    reduce_dataset,
    sweep,
)
from aggchoice.simulation import (
    DEFAULT_UTILITIES,
    MARKET_MENUS,
    UTILITY_SWEEP_TRIPLES,
    _bias_extremes,
    _World,
    composition_from_triples,
    make_world,
    simulate_point,
)

E = math.e


class TestLogitChoice:
    def test_equal_utilities(self):
        assert logit_choice({"x": 0.0, "y": 0.0}, ["x", "y"]) == {
            "x": 0.5,
            "y": 0.5,
        }

    def test_unit_gap(self):
        share = logit_choice({"x": 1.0, "y": 0.0}, ["x", "y"])["x"]
        assert share == pytest.approx(E / (1 + E), abs=1e-12)

    def test_three_item_proportionality(self):
        probs = logit_choice({"x": 2.0, "y": 1.0, "z": 3.0}, ["x", "y", "z"])
        total = E**2 + E + E**3
        assert probs["x"] == pytest.approx(E**2 / total, abs=1e-12)
        assert probs["z"] == pytest.approx(E**3 / total, abs=1e-12)

    def test_missing_utility(self):
        with pytest.raises(MissingUtility):
            logit_choice({"x": 0.0}, ["x", "y"])


class TestReduceDataset:
    def setup_method(self):
        self.space, self.corr, self.domain = make_world()
        self.u = dict(DEFAULT_UTILITIES)

    def reduce_with(self, triple):
        lam = composition_from_triples(
            {m: triple for m in MARKET_MENUS}, self.domain
        )
        return reduce_dataset(self.u, self.corr, lam, self.domain.menus)

    def test_degenerate_on_w(self):
        rho = self.reduce_with((0.0, 1.0, 0.0))
        assert rho.prob({"x", "a0"}, "x") == pytest.approx(
            E**2 / (E**2 + 1), abs=1e-12
        )

    def test_degenerate_on_z(self):
        rho = self.reduce_with((1.0, 0.0, 0.0))
        assert rho.prob({"x", "a0"}, "x") == pytest.approx(1 / (1 + E), abs=1e-12)

    def test_degenerate_on_both_is_exact_aggregation(self):
        # The outside aggregate behaves like one alternative with
        # exp(utility) equal to exp(3) + 1.
        rho = self.reduce_with((0.0, 0.0, 1.0))
        implied = E**2 / (E**2 + E**3 + 1)
        assert rho.prob({"x", "a0"}, "x") == pytest.approx(implied, abs=1e-12)
        markets = StochasticChoice(
            self.space, {m: rho.row(m) for m in MARKET_MENUS}
        )
        estimates = fit_aggregated_logit(markets)
        assert bias(estimates, self.u) == pytest.approx(0.0, abs=1e-6)

    def test_matches_forward_evaluation(self):
        # Plackett-Luce sequential-softmax weights turn the logit model
        # into an explicit preference distribution; reducing directly must
        # agree with full order-enumeration forward evaluation.
        rng = np.random.default_rng(70)
        ground = ("x", "y", "z", "w")
        for _ in range(10):
            utilities = {k: float(rng.normal()) for k in ground}
            weights = {}
            for perm in itertools.permutations(ground):
                p = 1.0
                remaining = list(ground)
                for item in perm:
                    p *= logit_choice(utilities, remaining)[item]
                    remaining.remove(item)
                weights[LinearOrder(perm)] = p
            prefs = PreferenceDistribution(weights)
            triples = {}
            for m in MARKET_MENUS:
                t = rng.random(3) + 0.01
                triples[m] = tuple(t / t.sum())
            lam = composition_from_triples(triples, self.domain)
            direct = reduce_dataset(utilities, self.corr, lam, self.domain.menus)
            forward = forward_evaluate(prefs, self.corr, lam, self.domain)
            assert direct.max_cell_difference(forward) <= 1e-10

    def test_part_outside_its_image_raises(self):
        # y is atomic, not one of the ids a0 stands for.
        menu = frozenset({"x", "a0"})
        wrong = CompositionTuple.of({"a0": {"y"}})
        lam = CompositionDistribution({menu: {wrong: 1.0}})
        with pytest.raises(InvalidTuple):
            reduce_dataset(self.u, self.corr, lam, [menu])

    def test_mixed_menu_without_composition_raises(self):
        lam = CompositionDistribution({})
        with pytest.raises(MissingLambdaForMenu):
            reduce_dataset(self.u, self.corr, lam, [frozenset({"x", "a0"})])


class TestFit:
    def setup_method(self):
        self.space, _, self.domain = make_world()

    def test_recovers_exact_logit(self):
        truth = {"x": 2.0, "y": 1.0, "a0": 0.0}
        rho = StochasticChoice(
            self.space,
            {m: logit_choice(truth, sorted(m)) for m in self.domain.menus},
        )
        estimates = fit_aggregated_logit(rho)
        assert estimates["x"] == pytest.approx(2.0, abs=1e-6)
        assert estimates["y"] == pytest.approx(1.0, abs=1e-6)
        assert estimates["a0"] == 0.0

    def test_gradient_at_optimum(self):
        truth = {"x": -0.7, "y": 1.3, "a0": 0.0}
        rho = StochasticChoice(
            self.space,
            {m: logit_choice(truth, sorted(m)) for m in self.domain.menus},
        )
        estimates = fit_aggregated_logit(rho)
        for a in ("x", "y"):
            grad = math.fsum(
                rho.prob(m, a) - logit_choice(estimates, sorted(m))[a]
                for m in self.domain.menus
                if a in m
            )
            assert abs(grad) <= 1e-10

    def test_equal_binary_shares_pin_zero(self):
        rho = StochasticChoice(
            self.space, {frozenset({"x", "a0"}): {"x": 0.5, "a0": 0.5}}
        )
        estimates = fit_aggregated_logit(rho)
        assert abs(estimates["x"]) <= 1e-10

    def test_disconnected_graph_rejected(self):
        space = AggregateSpace(("x", "y", "q"), ("a0",))
        rho = StochasticChoice(
            space,
            {
                frozenset({"x", "a0"}): {"x": 0.5, "a0": 0.5},
                frozenset({"y", "q"}): {"y": 0.5, "q": 0.5},
            },
        )
        with pytest.raises(NotIdentified):
            fit_aggregated_logit(rho)

    def test_concavity_along_newton_path(self):
        # The per-menu Hessian blocks are negative semidefinite, so the
        # pooled Hessian is too; spot-check eigenvalues at random points.
        rng = np.random.default_rng(71)
        truth = {"x": 0.4, "y": -0.9, "a0": 0.0}
        rho = StochasticChoice(
            self.space,
            {m: logit_choice(truth, sorted(m)) for m in self.domain.menus},
        )
        from aggchoice.simulation import _log_likelihood

        for _ in range(10):
            point = {"x": float(rng.normal()), "y": float(rng.normal())}
            _, _, hess = _log_likelihood(rho, point)
            eigenvalues = np.linalg.eigvalsh(hess)
            assert (eigenvalues <= 1e-12).all()


class TestBias:
    def test_arithmetic(self):
        assert bias({"x": 2.5, "y": 1.0}, {"x": 2.0, "y": 1.0}) == pytest.approx(0.5)
        assert bias({"x": 2.0, "y": 1.0}, {"x": 2.0, "y": 1.0}) == 0.0

    def test_reversal_threshold(self):
        # Bias below -1 with a true gap of one flips the estimated order.
        estimated = {"x": 0.2, "y": 0.5}
        true = {"x": 2.0, "y": 1.0}
        value = bias(estimated, true)
        assert value < -1
        assert estimated["y"] > estimated["x"]

    def test_missing_key(self):
        with pytest.raises(MissingUtility):
            bias({"x": 1.0}, {"x": 1.0, "y": 0.0})


class TestSweep:
    def test_lambda_sweep_row_count(self):
        rows = sweep("lambda", 0.1, "bias")
        assert len(rows) == 66  # 11 * 12 / 2 simplex grid at step 0.1

    def test_independent_cell_distance_zero(self):
        rows = sweep("lambda", 0.1, "distance")
        cell = next(
            r
            for r in rows
            if dict(r.point)["lam_z"] == 0.8 and dict(r.point)["lam_w"] == 0.1
        )
        assert cell.squared_distance <= 1e-8

    def test_far_cells_in_data_space_strictly_larger(self):
        # Cells whose reduced data sits far from the independent cell's
        # data are strictly non-ARU.  (In composition coordinates a whole
        # strip of cells remains ARU-rational; see the utility-sweep
        # diagonal test and the distance heatmap discussion.)
        space, corr, domain = make_world()
        rows = sweep("lambda", 0.1, "distance")
        base = composition_from_triples(
            {m: (0.8, 0.1, 0.1) for m in MARKET_MENUS}, domain
        )
        reference = reduce_dataset(DEFAULT_UTILITIES, corr, base, domain.menus)
        independent = None
        for r in rows:
            p = dict(r.point)
            if p["lam_z"] == 0.8 and p["lam_w"] == 0.1:
                independent = r
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
                assert r.squared_distance > independent.squared_distance

    def test_utility_sweep_diagonal_smaller(self):
        # With equal outside utilities the preferences are closer to
        # non-overlapping, so the diagonal has (weakly) smaller distance
        # than off-diagonal cells at the same grid radius.
        rows = {
            tuple(v for _, v in r.point): r.squared_distance
            for r in sweep("utility", 1.0, "distance")
        }
        for radius in (1.0, 2.0):
            diagonal = rows[(radius, radius)]
            off = rows[(radius, -radius)]
            assert diagonal <= off + 1e-12

    def test_row_count_matches_grid_product(self):
        # u(z), u(w) in {-5, 0, 5}.
        assert len(sweep("utility", 5.0, "bias")) == 9


class TestSharedWorld:
    # One world across all examples, so its cached realizations and the
    # lattice's reused work arrays are exercised from point to point.
    world = _World()

    @given(
        utilities=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
        parts=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(
                lambda t: sum(t) > 0.1
            ),
            min_size=3,
            max_size=3,
        ),
        measures=st.sampled_from(["both", "bias", "distance"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_world_matches_the_per_call_route(self, utilities, parts, measures):
        utilities = dict(zip(("x", "y", "z", "w"), utilities))
        triples = {
            m: tuple(p / math.fsum(t) for p in t) for m, t in zip(MARKET_MENUS, parts)
        }
        space, corr, domain = make_world()
        lam = composition_from_triples(triples, domain)
        rho = reduce_dataset(utilities, corr, lam, domain.menus)
        markets = StochasticChoice(space, {m: rho.row(m) for m in MARKET_MENUS})
        expected_bias = bias(fit_aggregated_logit(markets), utilities)
        expected_distance = aru_distance(rho, space).squared_distance
        for point in (
            self.world.point(utilities, triples, measures),
            simulate_point(utilities, triples, measures),
        ):
            assert point.reduced.table == rho.table
            if measures == "distance":
                assert point.bias is None
            else:
                assert point.bias == expected_bias
            if measures == "bias":
                assert point.squared_distance is None
            else:
                assert point.squared_distance == expected_distance


class TestIterationCap:
    # The 3-id points need 5 to 7 Frank-Wolfe iterations, so one is too few.
    def test_capped_distance_is_not_returned(self, monkeypatch):
        monkeypatch.setattr(aggchoice.geometry, "MAX_FW_ITERATIONS", 1)
        point = simulate_point(DEFAULT_UTILITIES, UTILITY_SWEEP_TRIPLES, "bias")
        assert aru_distance(point.reduced, point.reduced.space).hit_iteration_cap
        for measures in ("distance", "both"):
            with pytest.raises(NoConvergence):
                simulate_point(DEFAULT_UTILITIES, UTILITY_SWEEP_TRIPLES, measures)
            with pytest.raises(NoConvergence):
                sweep("utility", 5.0, measures)
        assert len(sweep("utility", 5.0, "bias")) == 9


class TestMinMax:
    def test_thresholds(self):
        rows = minmax_bias()
        assert max(r.max_bias for r in rows) > 2
        assert min(r.min_bias for r in rows) < -3

    def test_reversal_witnessed(self):
        rows = minmax_bias()
        assert any(r.min_bias < -1 for r in rows)

    def test_independent_bias_zero_when_exactly_aggregated(self):
        rows = minmax_bias()
        cell = next(r for r in rows if r.lam_w == 0.0 and r.lam_z == 0.0)
        assert cell.independent_bias == pytest.approx(0.0, abs=1e-6)

    def test_corner_coincidence_exact(self):
        # At the three simplex corners of the grand-menu composition the
        # smallest attainable absolute bias equals the menu-independent
        # bias exactly (both are zero there).
        rows = minmax_bias()
        for corner in ((1.0, 0.0), (0.0, 0.0), (0.0, 1.0)):
            cell = next(
                r for r in rows if (r.lam_w, r.lam_z) == corner
            )
            assert abs(cell.min_abs_bias - abs(cell.independent_bias)) <= 1e-9

    def test_edge_coincidence_visual(self):
        # Along the full boundary edges the coincidence holds to visual
        # precision (the true model separates them by about 1e-4).
        rows = minmax_bias()
        for cell in rows:
            if cell.lam_w in (0.0, 1.0):
                assert abs(cell.min_abs_bias - abs(cell.independent_bias)) <= 1e-3

    def test_row_count(self):
        assert len(minmax_bias()) == 66

    @pytest.mark.parametrize("seed", range(20))
    def test_extremes_match_the_pair_matrix(self, seed):
        # Short grids of close values, with repeats, put many pairs within
        # a few ulps of the gap, where the sign change is decided.
        rng = np.random.default_rng(seed)
        gap = float(rng.normal())
        ux = gap + rng.choice(rng.normal(scale=1e-15, size=7), size=40)
        uy = rng.choice(rng.normal(scale=10.0 ** -rng.integers(0, 16), size=9), size=30)
        if seed % 2:
            ux, uy = rng.normal(size=60), rng.normal(size=50)
        biases = ux[:, None] - uy[None, :] - gap
        expected = (biases.max(), biases.min(), np.abs(biases).min())
        assert _bias_extremes(ux, uy, gap) == tuple(map(float, expected))


class TestCoMovement:
    def test_bias_and_distance_rank_correlate(self):
        rows = sweep("lambda", 0.1, "both")
        biases = np.array([abs(r.bias) for r in rows])
        distances = np.array([r.squared_distance for r in rows])

        def ranks(values):
            order = np.argsort(values, kind="stable")
            out = np.empty(len(values))
            out[order] = np.arange(len(values))
            return out

        rb, rd = ranks(biases), ranks(distances)
        rb -= rb.mean()
        rd -= rd.mean()
        correlation = float(
            (rb * rd).sum() / math.sqrt((rb**2).sum() * (rd**2).sum())
        )
        assert correlation > 0.5
