import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aggchoice.lattice
from aggchoice import simulation

from aggchoice import (
    AggregateSpace,
    CompositionDistribution,
    CompositionTuple,
    InvalidProbability,
    InvalidTuple,
    LinearOrder,
    MissingLambdaForMenu,
    MissingUtility,
    NoConvergence,
    NotIdentified,
    PreferenceDistribution,
    StochasticChoice,
    TooLarge,
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
    _Likelihood,
    _World,
    composition_from_triples,
    make_world,
    simulate_point,
)
from aggchoice.model import _validate_rows, realizations

import sweep_reference  # the sweep through table objects, beside this file

E = math.e


# ---------------------------------------------------------------------------
# The per-point reference: one softmax per realized set and one damped
# Newton run per table, as the library computed them before it evaluated
# grids in lockstep.  The lockstep must give the same floats.
# ---------------------------------------------------------------------------


def reference_menu_row(utilities, owner, menu, realized):
    row = {a: 0.0 for a in menu}
    for w, ids in realized:
        for x, p in logit_choice(utilities, ids).items():
            row[owner[x]] += w * p
    return row


def reference_reduce(utilities, correspondence, composition, menus):
    owner = correspondence.owner_map()
    table = {}
    for menu in map(frozenset, menus):
        realized = realizations(menu, correspondence, composition)
        table[menu] = reference_menu_row(utilities, owner, menu, realized)
    return StochasticChoice(correspondence.space, table)


class ReferenceLikelihood:
    def __init__(self, rho, params):
        index = {a: i for i, a in enumerate(params)}
        self.size = len(params)
        self.menus = []
        for menu in rho.menus:
            items = sorted(menu)
            shares = [rho.prob(menu, a) for a in items]
            slots = [index.get(a) for a in items]
            free = [(i, slot) for i, slot in enumerate(slots) if slot is not None]
            self.menus.append((items, shares, slots, free))

    def __call__(self, values):
        ll = 0.0
        grad = np.zeros(self.size)
        hess = np.zeros((self.size, self.size))
        for items, shares, slots, free in self.menus:
            u = np.array([values.get(a, 0.0) for a in items])
            u = u - u.max()
            p = np.exp(u)
            total = p.sum()
            logits = (u - math.log(total)).tolist()
            p = (p / total).tolist()
            for lp, pa, share, slot in zip(logits, p, shares, slots):
                if share > 0.0:
                    ll += share * lp
                if slot is not None:
                    grad[slot] += share - pa
            for i, gi in free:
                for j, gj in free:
                    hess[gi, gj] -= (1.0 if i == j else 0.0) * p[i] - p[i] * p[j]
        return ll, grad, hess


def reference_fit(rho, log=None):
    """The damped Newton fit of one table; appends "halving" and
    "lstsq" to `log` each time it takes that path."""
    log = [] if log is None else log
    free = simulation._check_identified(rho.menus, simulation.PINNED)
    values = {a: 0.0 for a in free}
    if not free:
        return {simulation.PINNED: 0.0}
    log_likelihood = ReferenceLikelihood(rho, free)
    current, grad, hess = log_likelihood(values)
    for _ in range(simulation.MAX_NEWTON_ITERATIONS):
        if np.abs(grad).max() <= simulation.GRADIENT_TOL:
            return {**values, simulation.PINNED: 0.0}
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            log.append("lstsq")
            step = np.linalg.lstsq(-hess, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(simulation.MAX_STEP_HALVINGS):
            trial = {a: values[a] + scale * s for a, s in zip(free, step)}
            evaluated = log_likelihood(trial)
            if evaluated[0] >= current - simulation.ASCENT_SLACK:
                values = trial
                current, grad, hess = evaluated
                break
            log.append("halving")
            scale *= 0.5
        else:
            raise NoConvergence("step halving failed to improve the likelihood")
    raise NoConvergence("Newton hit the iteration cap before the gradient tolerance")


def reference_point(utilities, triples, measures, log=None):
    """(reduced table, estimates, bias, squared distance) of one point."""
    space, corr, domain = make_world()
    lam = composition_from_triples(triples, domain)
    rho = reference_reduce(utilities, corr, lam, domain.menus)
    estimates = value = distance = None
    if measures in ("bias", "both"):
        markets = StochasticChoice(space, {m: rho.row(m) for m in MARKET_MENUS})
        estimates = reference_fit(markets, log)
        value = bias(estimates, utilities)
    if measures in ("distance", "both"):
        distance = aru_distance(rho, space).squared_distance
    return rho, estimates, value, distance


def odd_singular(solve):
    """`np.linalg.solve` that calls a matrix singular when the last bit
    of its first entry is set; a stack fails if any matrix does."""

    def patched(a, b):
        first = np.asarray(a)[..., 0, 0].reshape(-1)
        if (first.view(np.int64) & 1).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    return patched


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
            reference = reference_reduce(utilities, self.corr, lam, self.domain.menus)
            assert direct.table == reference.table

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
        for _ in range(10):
            point = {"x": float(rng.normal()), "y": float(rng.normal())}
            values = np.array([[point[a] for a in sorted(point)]])
            shares = {
                m: np.array([[rho.prob(m, a) for a in sorted(m)]]) for m in rho.menus
            }
            _, _, hess = _Likelihood(shares, sorted(point))(values, np.arange(1))
            eigenvalues = np.linalg.eigvalsh(hess[0])
            assert (eigenvalues <= 1e-12).all()

    def logit_data(self):
        truth = {"x": 2.0, "y": 1.0, "a0": 0.0}
        rho = StochasticChoice(
            self.space,
            {m: logit_choice(truth, sorted(m)) for m in self.domain.menus},
        )
        return rho, truth

    def test_singular_hessian_takes_the_least_squares_step(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        steps = []
        lstsq = np.linalg.lstsq

        def spy(a, b, rcond):
            steps.append(b)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "lstsq", spy)
        rho, truth = self.logit_data()
        estimates = fit_aggregated_logit(rho)
        assert estimates == pytest.approx(truth, abs=1e-6)
        assert steps

    def rejecting(self, monkeypatch, rejects):
        """Make the likelihood report -inf on the evaluations `rejects`
        picks by call number; returns the points it was evaluated at."""
        points = []

        class Rejecting(_Likelihood):
            def __call__(self, values, which):
                points.append(dict(zip(("x", "y"), values[0].tolist())))
                ll, grad, hess = super().__call__(values, which)
                if rejects(len(points)):
                    ll = np.full_like(ll, -math.inf)
                return ll, grad, hess

        monkeypatch.setattr(simulation, "_Likelihood", Rejecting)
        return points

    def test_a_rejected_step_is_halved(self, monkeypatch):
        # Call 1 is the start, at 0; call 2 the first full step, which fails.
        points = self.rejecting(monkeypatch, lambda call: call == 2)
        rho, truth = self.logit_data()
        assert fit_aggregated_logit(rho) == pytest.approx(truth, abs=1e-6)
        start, full, half = points[:3]
        assert start == {"x": 0.0, "y": 0.0}
        assert half == {a: 0.5 * step for a, step in full.items()}

    def test_halving_that_never_helps_raises(self, monkeypatch):
        points = self.rejecting(monkeypatch, lambda call: call > 1)
        rho, _ = self.logit_data()
        with pytest.raises(NoConvergence, match="step halving"):
            fit_aggregated_logit(rho)
        assert len(points) == 1 + simulation.MAX_STEP_HALVINGS

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_NEWTON_ITERATIONS", 1)
        rho, _ = self.logit_data()
        with pytest.raises(NoConvergence, match="iteration cap"):
            fit_aggregated_logit(rho)


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

    def test_batches_do_not_change_the_rows(self, monkeypatch):
        # The 66-point lambda grid (a triples mapping per point) and the
        # 121-point utility grid (one mapping for all), under each
        # measure, in batches of one, of seven and of SWEEP_BATCH.
        for mode, step in (("lambda", 0.1), ("utility", 1.0)):
            for measures in ("both", "bias", "distance"):
                whole = repr(sweep(mode, step, measures))
                for size in (1, 7):
                    with monkeypatch.context() as patch:
                        patch.setattr(simulation, "SWEEP_BATCH", size)
                        assert repr(sweep(mode, step, measures)) == whole


class TestGridCap:
    """Grids above MAX_GRID_POINTS raise `TooLarge` before they are built;
    the cap is lowered here so that no test builds a large grid."""

    def test_simplex_grids(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_GRID_POINTS", 66)
        assert len(sweep("lambda", 0.1, "bias")) == 66  # (10 + 1)(10 + 2) / 2
        with pytest.raises(TooLarge, match="simplex grid at step 0.05"):
            sweep("lambda", 0.05, "bias")  # 231 points
        assert len(minmax_bias(0.1, 0.1)) == 66
        for outer, inner in ((0.05, 0.1), (0.1, 0.05)):
            with pytest.raises(TooLarge, match="holds more than 66 points"):
                minmax_bias(outer, inner)

    def test_the_utility_grid(self, monkeypatch):
        monkeypatch.setattr(simulation, "MAX_GRID_POINTS", 120)
        with pytest.raises(TooLarge, match="utility grid at step 1 holds more"):
            sweep("utility", 1.0, "bias")  # 11 * 11 points
        monkeypatch.setattr(simulation, "MAX_GRID_POINTS", 121)
        assert len(sweep("utility", 1.0, "bias")) == 121


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
        rho, _, expected_bias, expected_distance = reference_point(
            utilities, triples, "both"
        )
        for point in (
            self.world.points([(utilities, triples)], measures)[0],
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


def odd(values):
    """Whether the last bit of each value is set: a rule that picks
    trial points the same way on both routes."""
    return (np.asarray(values, dtype=float).view(np.int64) & 1).astype(bool)


class PickyLikelihood(_Likelihood):
    """The lockstep likelihood, falling to -inf where its last bit is set."""

    def __call__(self, values, which):
        ll, grad, hess = super().__call__(values, which)
        return np.where(odd(ll), -math.inf, ll), grad, hess


class PickyReference(ReferenceLikelihood):
    def __call__(self, values):
        ll, grad, hess = super().__call__(values)
        return (-math.inf if odd(ll) else ll), grad, hess


#: A (utilities, triples) point of a wide grid, and the same point with
#: two markets at a boundary of the simplex (fewer realized sets).
WIDE = (
    {"x": 7.5, "y": -9.0, "z": 12.0, "w": -3.25},
    {m: (0.2, 0.5, 0.3) for m in MARKET_MENUS},
)
BOUNDARY = (
    {"x": -4.0, "y": 6.0, "z": 0.5, "w": 11.0},
    {**{m: (0.0, 0.4, 0.6) for m in MARKET_MENUS}, MARKET_MENUS[2]: (1.0, 0.0, 0.0)},
)


def normalized(triple):
    return tuple(p / math.fsum(triple) for p in triple)


def triple():
    # Exact zeros drop realized sets, so a batch mixes set structures.
    part = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    return st.lists(part, min_size=3, max_size=3).filter(lambda t: sum(t) > 0.1)


class TestLockstep:
    """A batch of points evaluated in lockstep gets the floats of the
    per-point reference, whatever each point's halvings and solves."""

    @given(
        batch=st.lists(
            st.tuples(
                st.lists(st.floats(-15.0, 15.0), min_size=4, max_size=4),
                st.lists(triple(), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=6,
        ),
        measures=st.sampled_from(["both", "bias", "distance"]),
        picky=st.booleans(),
        singular=st.booleans(),
    )
    @example(batch=[], measures="bias", picky=True, singular=True)
    @example(batch=[], measures="both", picky=False, singular=False)
    @settings(max_examples=40, deadline=None)
    def test_matches_the_per_point_reference(self, batch, measures, picky, singular):
        grid = [WIDE, BOUNDARY] + [
            (
                dict(zip(("x", "y", "z", "w"), u)),
                {m: normalized(t) for m, t in zip(MARKET_MENUS, ts)},
            )
            for u, ts in batch
        ]
        log: list[str] = []
        with pytest.MonkeyPatch.context() as patch:
            if singular:
                patch.setattr(np.linalg, "solve", odd_singular(np.linalg.solve))
            if picky:
                patch.setattr(simulation, "_Likelihood", PickyLikelihood)
                here = sys.modules[__name__]
                patch.setattr(here, "ReferenceLikelihood", PickyReference)
            points = _World().points(grid, measures)
            expected = [reference_point(u, t, measures, log) for u, t in grid]
        if measures != "distance":
            assert ("halving" in log) == picky
            assert ("lstsq" in log) == singular
        for point, (rho, estimates, value, distance) in zip(points, expected):
            assert point.reduced.table == rho.table
            assert point.estimates == estimates
            assert point.bias == value
            assert point.squared_distance == distance

    def test_a_failing_fit_raises_before_a_failing_projection(self, monkeypatch):
        # The first point's projection and the second point's fit fail:
        # every fit runs before any Frank-Wolfe run, so the fit's error
        # comes first.
        class FailsSecond(_Likelihood):
            # Every step of the second table, away from its start at 0.
            def __call__(self, values, which):
                ll, grad, hess = super().__call__(values, which)
                rejected = (which == 1) & values.any(axis=1)
                return np.where(rejected, -math.inf, ll), grad, hess

        monkeypatch.setattr(simulation, "_Likelihood", FailsSecond)
        monkeypatch.setattr(aggchoice.lattice, "MAX_FW_ITERATIONS", 1)
        world = _World()
        with pytest.raises(NoConvergence, match="Frank-Wolfe"):
            world.points([WIDE], "both")
        with pytest.raises(NoConvergence, match="step halving"):
            world.points([WIDE, BOUNDARY], "both")


def outcome(route):
    """What `route()` returns, or the type and message of what it raises."""
    try:
        return route()
    except (InvalidProbability, OverflowError) as err:
        return type(err), str(err)


def faulty_rows(faults):
    """`_menu_rows` with the entries `faults` names changed: each fault is
    (point, menu index, kind)."""
    menu_rows = simulation._menu_rows
    menus = make_world()[2].menus

    def patched(utilities, owner, menu, realized, columns):
        rows = menu_rows(utilities, owner, menu, realized, columns)
        for point, at, kind in faults:
            row = rows[min(menu)]  # the first aggregate in sorted order
            if menus[at] != menu or point >= len(row):
                continue
            if kind == "drift":  # renormalized
                row[point] += 3e-13
            elif kind == "clip":  # moved to the last aggregate, less 4e-13
                rows[max(menu)][point] += row[point]
                row[point] = -4e-13
            elif kind == "mass":
                row[point] += 1e-6
            else:
                row[point] = {"nan": math.nan, "inf": math.inf, "negative": -1e-6}[kind]
        return rows

    return patched


class TestArrayRoute:
    """The sweep validates each batch's rows as arrays and builds no
    table: each point gets the floats, and each failing point the error,
    of the route through its table objects."""

    @staticmethod
    def same(points, expected):
        for point, reference in zip(points, expected, strict=True):
            assert point.reduced.table == reference.reduced.table
            assert point.estimates == reference.estimates
            for got, want in (
                (point.bias, reference.bias),
                (point.squared_distance, reference.squared_distance),
            ):
                assert (got is None and want is None) or got.hex() == want.hex()

    @given(
        batch=st.lists(
            st.tuples(
                st.lists(st.floats(-15.0, 15.0), min_size=4, max_size=4),
                st.lists(triple(), min_size=3, max_size=3),
            ),
            max_size=4,
        ),
        measures=st.sampled_from(["both", "bias", "distance"]),
        faults=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 6),
                st.sampled_from(["drift", "clip", "mass", "nan", "inf", "negative"]),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_points_match_the_table_route(self, batch, measures, faults):
        grid = [WIDE, BOUNDARY] + [
            (
                dict(zip(("x", "y", "z", "w"), u)),
                {m: normalized(t) for m, t in zip(MARKET_MENUS, ts)},
            )
            for u, ts in batch
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_menu_rows", faulty_rows(faults))
            points = outcome(lambda: _World().points(grid, measures))
            expected = outcome(lambda: sweep_reference.points(_World(), grid, measures))
        if isinstance(expected, tuple):
            assert points == expected
        else:
            self.same(points, expected)

    def test_a_non_finite_utility_raises_the_table_error(self):
        utilities = {**DEFAULT_UTILITIES, "w": math.nan}
        grid = [WIDE, (utilities, UTILITY_SWEEP_TRIPLES)]
        error = outcome(lambda: _World().points(grid, "both"))
        assert error[0] is InvalidProbability and "non-finite weight nan" in error[1]
        assert error == outcome(lambda: sweep_reference.points(_World(), grid, "both"))

    @pytest.mark.parametrize("mode, step", [("lambda", 0.1), ("utility", 0.5)])
    def test_bench_grids_match_the_table_route(self, mode, step, monkeypatch):
        def hexes(rows):
            return [(r.point, r.bias.hex(), r.squared_distance.hex()) for r in rows]

        rows = hexes(sweep(mode, step, "both"))

        def measure(world, grid, measures):
            points = sweep_reference.points(world, grid, measures)
            columns = zip(*((p.estimates, p.bias, p.squared_distance) for p in points))
            return (None, *columns)

        monkeypatch.setattr(_World, "measure", measure)
        assert hexes(sweep(mode, step, "both")) == rows

    def test_the_market_rows_need_their_second_validation(self):
        # Validating a validated row can renormalize it again, so the
        # market rows keep their second pass.
        world = _World()
        marks = [simulation.UTILITY_LOW + 0.5 * i for i in range(21)]
        grid = [
            ({**DEFAULT_UTILITIES, "z": uz, "w": uw}, UTILITY_SWEEP_TRIPLES)
            for uz in marks
            for uw in marks
        ]
        raw, *_ = world.measure(grid, "distance")
        once = _validate_rows(raw, world.lattice.cells)[:, world.market_columns]
        twice = _validate_rows(once, world.market_cells)
        changed = np.logical_or.reduceat(once != twice, [0, 2, 4], axis=1)
        assert int(changed.sum()) == 142 and changed.size == 1323

    def test_realized_sets_are_cached_per_menu(self):
        # Two lambda points differ in one market's triple: every other
        # menu's realized sets are the same cached list.
        world = _World()
        first, second = (
            world.realized(
                {**simulation.LAMBDA_SWEEP_TRIPLES, simulation.LAMBDA_SWEEP_MENU: t}
            )
            for t in ((0.2, 0.3, 0.5), (0.6, 0.1, 0.3))
        )
        shared = [a is b for a, b in zip(first, second)]
        varied = world.domain.menus.index(simulation.LAMBDA_SWEEP_MENU)
        assert shared == [k != varied for k in range(len(shared))]


class TestIterationCap:
    # The 3-id points need 5 to 7 Frank-Wolfe iterations, so one is too few.
    def test_capped_distance_is_not_returned(self, monkeypatch):
        monkeypatch.setattr(aggchoice.lattice, "MAX_FW_ITERATIONS", 1)
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
