"""The subset-lattice oracle and the Frank-Wolfe corral built on it.

The oracle is checked against the scan it replaced, the argmin of every
order's score over `order_events`, and `ru_vertex_lmo` against the same
scan with each menu's best deviation.  Integer-valued gradients have
exact ties, so both routes must agree on which order comes first, not
only on the least value.  Carathéodory's vertices are checked against
the tables `vertex_choice` builds and against the scan at each step.
"""

import hashlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggchoice
import aggchoice.lattice
from aggchoice import (
    AggChoiceError,
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    MenuCollectionFamily,
    StochasticChoice,
    approx_caratheodory,
    aru_distance,
    build_nesting_counterexample,
    check_aru_rational,
    ru_vertex_lmo,
    vertex_choice,
)
from aggchoice import geometry, model, simulation
from aggchoice.cli import main
from aggchoice.lattice import MAX_FW_ITERATIONS, _frank_wolfe, _LatticeCells
from aggchoice.model import all_orders, order_events
from aggchoice.tolerances import AFFINE_TOL, GAP_TOL

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(pathlib.Path(aggchoice.__file__).resolve().parent.parent)
sys.path.insert(0, str(ROOT / "bench"))
import instances as gen  # noqa: E402  (the benchmark's instance generator)

import fw_reference  # noqa: E402  (the solo Frank-Wolfe run, beside this file)

make_space = gen.make_space


def partial_domain(space, rng):
    """About half the menus of the full domain, every singleton kept."""
    menus = [
        m
        for m in ChoiceDomain.full(space).menus
        if len(m) == 1 or rng.random() < 0.5
    ]
    return ChoiceDomain(space, tuple(menus))


def first_least(scores, slack=0.0):
    """Index of the first score within `slack` of the least."""
    return int(np.flatnonzero(scores <= scores.min() + slack)[0])


def lattice_order(space, domain, costs):
    orders, least = _LatticeCells(space, domain).cheapest(costs[None])
    return LinearOrder(tuple(space.members[k] for k in orders[0])), least[0]


def scan_lmo(gradient, space, domain):
    """The RU vertex oracle as a scan over every order's cells."""

    def coeff(menu, a):
        return gradient.get((menu, a), 0.0)

    best_deviation = {}
    for menu in domain.menus:
        value, target = math.inf, None
        for a in space.sort(menu & space.non_atomic_set):
            if coeff(menu, a) < value:
                value, target = coeff(menu, a), a
        best_deviation[menu] = value, target
    cells = domain.cells()
    costs = [min(coeff(m, a), best_deviation[m][0]) for m, a in cells]
    events = order_events(space.members, cells)
    # Cell by cell, so orders that pick equal costs get equal floats.
    total = sum(np.where(row, cost, 0.0) for row, cost in zip(events, costs))
    index = int(np.argmin(total))
    order = all_orders(space.members)[index]
    deviations = {}
    for menu, (value, target) in best_deviation.items():
        if value < coeff(menu, order.best(menu)):
            deviations.setdefault(target, []).append(menu)
    family = MenuCollectionFamily({a: frozenset(m) for a, m in deviations.items()})
    return order, family


SPACES = [(2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (5, 1), (5, 2)]


class TestLatticeOracle:
    @pytest.mark.parametrize("shape", SPACES)
    @pytest.mark.parametrize("partial", [False, True])
    def test_matches_the_scan(self, shape, partial):
        space = make_space(*shape)
        rng = np.random.default_rng([len(space.members), partial])
        domain = partial_domain(space, rng) if partial else ChoiceDomain.full(space)
        events = order_events(space.members, domain.cells())
        orders = all_orders(space.members)
        for trial in range(20):
            if trial % 2:
                costs = rng.integers(-2, 3, len(events)).astype(float)
            else:
                costs = rng.normal(size=len(events))
            scores = events.T @ costs
            order, least = lattice_order(space, domain, costs)
            assert order == orders[first_least(scores)]
            assert least == pytest.approx(scores.min(), abs=1e-12)

    def test_ties_keep_the_first_order(self):
        space = make_space(4, 1)
        domain = ChoiceDomain.full(space)
        costs = np.zeros(len(domain.cells()))
        assert lattice_order(space, domain, costs)[0].ranking == space.members

    @pytest.mark.parametrize("atomic", [2, 3, 5])
    def test_nearest_vertex_is_the_first_of_the_tied(self, atomic):
        # Thirds and fifths: vertices tie in exact arithmetic, and their
        # float scores differ by rounding only.
        space = make_space(atomic, 1)
        rho = build_nesting_counterexample(space)
        domain = rho.domain()
        cells = domain.cells()
        target = np.array([rho.prob(m, a) for m, a in cells])
        scores = order_events(space.members, cells).T @ -target
        order, _ = lattice_order(space, domain, -target)
        assert order == all_orders(space.members)[first_least(scores, 1e-9)]


class TestRuVertexLmo:
    @pytest.mark.parametrize("shape", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("partial", [False, True])
    def test_matches_the_winner_table_scan(self, shape, partial):
        space = make_space(*shape)
        rng = np.random.default_rng([7, len(space.members), partial])
        domain = partial_domain(space, rng) if partial else ChoiceDomain.full(space)
        for trial in range(20):
            draw = (
                (lambda: float(rng.integers(-2, 3)))
                if trial % 2
                else (lambda: float(rng.normal()))
            )
            gradient = {cell: draw() for cell in domain.cells() if rng.random() < 0.8}
            order, family = ru_vertex_lmo(gradient, space, domain)
            expected_order, expected_family = scan_lmo(gradient, space, domain)
            assert order == expected_order
            assert family.per_aggregate == expected_family.per_aggregate


class TestCaratheodory:
    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (4, 2)])
    @pytest.mark.parametrize("partial", [False, True])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_vertex_rows_match_vertex_choice(self, shape, partial, seed):
        # Both measures, recomputed from the tables vertex_choice builds
        # for the returned vertices, in the library's order of operations.
        space = make_space(*shape)
        domain = gen.closed_partial_domain(space, seed, 1) if partial else None
        rho = gen.vertex_mixture("ru", space, seed, 0, 8, domain=domain).rho
        domain = rho.domain()
        cells = domain.cells()
        target = np.array([rho.prob(m, a) for m, a in cells])
        for k in range(1, 5):
            result = approx_caratheodory(rho, k, space)
            rows = [
                np.array([vertex_choice(o, f, domain).prob(m, a) for m, a in cells])
                for o, f in result.vertices
            ]
            # Each step's vertex is the scan's on that step's gradient.
            running = np.zeros(len(cells))
            for t, (vertex, row) in enumerate(zip(result.vertices, rows)):
                grad = running - (t + 1.0) * target
                gradient = {cell: float(g) for cell, g in zip(cells, grad)}
                order, family = scan_lmo(gradient, space, domain)
                assert vertex[0] == order
                assert vertex[1].per_aggregate == family.per_aggregate
                running = running + row
            uniform = sum(rows, np.zeros(len(cells))) / k
            x = np.zeros(len(cells))
            for t, row in enumerate(rows):
                x = (1.0 - 2.0 / (t + 2.0)) * x + 2.0 / (t + 2.0) * row
            menus = float(len(domain.menus))
            assert result.achieved == float(((uniform - target) ** 2).sum()) / menus
            assert result.fw_achieved == float(((x - target) ** 2).sum()) / menus
            assert result.approximation.table == {
                m: {a: float(p) for (menu, a), p in zip(cells, uniform) if menu == m}
                for m in domain.menus
            }

    def test_one_lattice_per_call(self, monkeypatch):
        built = []

        class Counting(_LatticeCells):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(geometry, "_LatticeCells", Counting)
        space = make_space(3, 2)
        rho = gen.vertex_mixture("ru", space, 1, 0, 8).rho
        approx_caratheodory(rho, 4, space)
        assert len(built) == 1
        gradient = {cell: 1.0 for cell in rho.domain().cells()}
        ru_vertex_lmo(gradient, space, rho.domain())
        assert len(built) == 2

    def test_a_table_without_menus_is_an_error(self):
        space = make_space(2, 1)
        rho = StochasticChoice(space, {})
        for call in (aru_distance, lambda r, s: approx_caratheodory(r, 2, s)):
            with pytest.raises(AggChoiceError, match="the choice table has no menus"):
                call(rho, space)


class TestCorral:
    def test_a_vertex_in_the_affine_hull_is_exchanged_in(self):
        space = AggregateSpace(("x", "y"), ("a0", "a1"))
        domain = ChoiceDomain.full(space)
        lattice = _LatticeCells(space, domain)
        rng = np.random.default_rng(5)
        target = rng.random(len(domain.cells()))
        corral = fw_reference.Corral(target, len(domain.menus))
        weights = np.empty(0)
        orders = [tuple(int(k) for k in rng.permutation(4)) for _ in range(200)]
        exchanged = 0
        # All 24 vertices in turn, at spread weights: past 18, the
        # polytope's dimension plus one, each lies in the others' hull.
        for order in dict.fromkeys(orders):
            rows = np.vstack([corral.rows, fw_reference.vertex(lattice, order)])
            augmented = np.hstack([np.ones((len(rows), 1)), rows])
            dependent = np.linalg.matrix_rank(augmented) < len(rows)
            before = weights @ corral.rows if len(weights) else None
            size = len(corral.orders)
            weights = corral.enter(order, fw_reference.vertex(lattice, order), weights)
            if dependent:
                exchanged += 1
                # The point is kept; one vertex left for the new one.
                assert len(corral.orders) == size
                assert np.allclose(weights @ corral.rows, before, atol=1e-12)
            else:
                weights = np.full(len(weights), 1.0 / len(weights))
            augmented = np.hstack([np.ones((len(corral.rows), 1)), corral.rows])
            assert np.linalg.matrix_rank(augmented) == len(corral.rows)
            assert (weights >= 0).all()
            assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
            # S inverts the triangular factor R of the augmented Gram matrix.
            gram = 1.0 + (corral.rows - target) @ (corral.rows - target).T
            assert np.allclose(corral.factor.T @ corral.factor, gram, atol=1e-9)
            assert np.allclose(
                corral.inverse @ corral.factor, np.eye(len(gram)), atol=1e-9
            )
        assert len(corral.orders) == 18
        assert exchanged == 24 - 18
        start = weights @ corral.rows - target
        weights = corral.descend(weights)
        assert (weights > 0).all()
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)
        end = weights @ corral.rows - target
        assert end @ end <= start @ start

    def test_full_dimensional_corral_reaches_interior_data(self):
        # Every order of 5 ids carries weight, so the projection is the
        # data itself, inside the polytope: the corral ends as a simplex
        # of the polytope's full dimension, 80 cells less 31 menus.
        rho = gen.aru_order_mixture("all-orders", make_space(4, 1), 1, 0).rho
        result = aru_distance(rho, rho.space)
        assert not result.hit_iteration_cap
        assert result.squared_distance <= 1e-20
        assert len(result.mixture) == 80 - 31 + 1


def random_targets(space, domain, rng, count):
    """Targets that stop at different iterations: uniform cell values
    outside the polytope, mixtures of a few vertices inside it, and such
    mixtures pushed a little outside."""
    lattice = _LatticeCells(space, domain)
    n = len(space.members)
    targets = []
    for kind in rng.integers(3, size=count):
        if kind == 0:
            targets.append(rng.random(len(lattice.cells)))
            continue
        orders = [tuple(rng.permutation(n).tolist()) for _ in range(rng.integers(1, 6))]
        mix = rng.dirichlet(np.ones(len(orders))) @ lattice.vertices(orders)
        targets.append(mix if kind == 1 else mix + rng.normal(0.0, 0.05, len(mix)))
    return lattice, np.array(targets)


def bits(value):
    return np.asarray(value, dtype=float).tobytes()


def assert_solo_floats(runs, lattice, targets):
    """Each lockstep run equals the solo run of its target, bit for bit."""
    assert len(runs) == len(targets)
    for run, target in zip(runs, targets):
        solo, _ = fw_reference.frank_wolfe(lattice, target)
        assert run.orders == solo.orders
        assert bits(run.orders) == bits(solo.orders)
        assert bits(run.weights) == bits(solo.weights)
        assert bits(run.point) == bits(solo.point)
        assert bits(run.squared_distance) == bits(solo.squared_distance)
        assert bits(run.gap) == bits(solo.gap)
        assert bits(run.trace) == bits(solo.trace)


#: Spaces of 2 to 6 ids, and the largest batch drawn for each id count.
LOCKSTEP_SHAPES = [(1, 1), (2, 1), (2, 2), (3, 1), (4, 1), (3, 2), (5, 1), (4, 2)]
LOCKSTEP_BATCH = {2: 130, 3: 130, 4: 40, 5: 10, 6: 6}


class TestLockstep:
    """`lattice._frank_wolfe` runs a stack of targets in lockstep; each
    must get the floats of the solo run in `fw_reference`."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_each_row_gets_the_floats_of_its_solo_run(self, data):
        shape = data.draw(st.sampled_from(LOCKSTEP_SHAPES), label="shape")
        most = LOCKSTEP_BATCH[sum(shape)]
        sizes = st.sampled_from([most, 1]) | st.integers(1, most)
        count = data.draw(sizes, label="count")
        partial = data.draw(st.booleans(), label="partial")
        # A looser hull test exchanges vertices in often; its runs may not
        # converge, so they run under a small iteration cap.
        hull_tol = data.draw(st.sampled_from([AFFINE_TOL, 0.05, 0.3]), label="hull")
        caps = [MAX_FW_ITERATIONS, 25, 3] if hull_tol == AFFINE_TOL else [25, 3]
        cap = data.draw(st.sampled_from(caps), label="cap")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        space = make_space(*shape)
        domain = partial_domain(space, rng) if partial else ChoiceDomain.full(space)
        lattice, targets = random_targets(space, domain, rng, count)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(aggchoice.lattice, "AFFINE_TOL", hull_tol)
            patch.setattr(fw_reference, "AFFINE_TOL", hull_tol)
            patch.setattr(aggchoice.lattice, "MAX_FW_ITERATIONS", cap)
            assert_solo_floats(_frank_wolfe(lattice, targets), lattice, targets)

    def test_exchanges_removals_and_the_cap_are_reached(self, monkeypatch):
        space = make_space(4, 1)
        rng = np.random.default_rng(1)
        lattice, targets = random_targets(space, ChoiceDomain.full(space), rng, 40)
        monkeypatch.setattr(aggchoice.lattice, "AFFINE_TOL", 0.05)
        monkeypatch.setattr(fw_reference, "AFFINE_TOL", 0.05)
        monkeypatch.setattr(aggchoice.lattice, "MAX_FW_ITERATIONS", 25)
        stacked = []
        remove = aggchoice.lattice._Corral._remove

        def counted(self, points, drops):
            stacked.append(len(points))
            remove(self, points, drops)

        monkeypatch.setattr(aggchoice.lattice._Corral, "_remove", counted)
        runs = _frank_wolfe(lattice, targets)
        assert_solo_floats(runs, lattice, targets)
        corrals = [fw_reference.frank_wolfe(lattice, target)[1] for target in targets]
        assert sum(corral.exchanges for corral in corrals) > 0
        assert max(stacked) > 1  # one removal step for several points
        capped = [run.hit_iteration_cap for run in runs]
        assert any(capped) and not all(capped)
        assert len({len(run.trace) for run in runs}) > 1

    def test_an_active_order_is_not_entered_again(self, monkeypatch):
        # A loose clipping tolerance stops the minor cycle short of the
        # minimizer, so the oracle returns orders that are active already.
        monkeypatch.setattr(aggchoice.lattice, "ACTIVE_SET_TOL", 0.05)
        monkeypatch.setattr(fw_reference, "ACTIVE_SET_TOL", 0.05)
        monkeypatch.setattr(aggchoice.lattice, "MAX_FW_ITERATIONS", 40)
        space = make_space(3, 1)
        rng = np.random.default_rng(3)
        lattice, targets = random_targets(space, ChoiceDomain.full(space), rng, 40)
        assert_solo_floats(_frank_wolfe(lattice, targets), lattice, targets)
        corrals = [fw_reference.frank_wolfe(lattice, target)[1] for target in targets]
        assert sum(corral.repeats for corral in corrals) > 0

    def test_the_sweep_benchmark_grid(self):
        # The 441 validated targets of `sweep --mode utility --resolution
        # 0.5`, one stack, as one batch of the sweep runs them.
        world = simulation._World()
        marks = [simulation.UTILITY_LOW + 0.5 * i for i in range(21)]
        triples = simulation.UTILITY_SWEEP_TRIPLES
        grid = [
            ({**simulation.DEFAULT_UTILITIES, "z": uz, "w": uw}, triples)
            for uz in marks
            for uw in marks
        ]
        raw, *_ = world.measure(grid, "bias")
        targets = model._validate_rows(raw, world.lattice.cells)
        assert_solo_floats(_frank_wolfe(world.lattice, targets), world.lattice, targets)

    def test_a_stack_of_one_is_the_solo_run(self):
        # The benchmark's 7-id polytope instance: about 70 iterations.
        space = make_space(5, 2)
        rho = gen.vertex_mixture("poly7", space, 1, 0, 8, force_non_aru=True).rho
        lattice = _LatticeCells(rho.space, rho.domain())
        target = lattice.values(rho)[None]
        assert_solo_floats(_frank_wolfe(lattice, target), lattice, target)


class TestLowerBound:
    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (3, 2)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certifies_forced_non_aru_data(self, shape, seed):
        rho = gen.vertex_mixture(
            "forced", make_space(*shape), seed, 0, 8, force_non_aru=True
        ).rho
        assert not check_aru_rational(rho, rho.space).passed
        result = aru_distance(rho, rho.space)
        assert 0.0 < result.lower_bound <= result.squared_distance
        assert result.lower_bound == result.squared_distance - result.duality_gap

    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (4, 1), (3, 2)])
    def test_at_most_the_gap_on_aru_rational_data(self, shape):
        rho = gen.aru_order_mixture("aru", make_space(*shape), 1, 0).rho
        result = aru_distance(rho, rho.space)
        assert result.lower_bound <= GAP_TOL
        assert result.squared_distance <= 1e-8


def polytope_manifest(tmp_path, atomic, seed=1):
    inst = gen.vertex_mixture(
        "poly", make_space(atomic, 2), seed, 0, 8, force_non_aru=True
    )
    path = tmp_path / f"poly{atomic + 2}.json"
    path.write_text(inst.manifest_text())
    return str(path)


class TestScale:
    def test_no_order_enumeration_at_seven_ids(self, tmp_path, monkeypatch):
        path = polytope_manifest(tmp_path, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("enumerated every order")

        table = model._permutation_table

        def small_tables_only(n):
            if n >= 7:
                refuse()
            return table(n)

        monkeypatch.setattr(geometry, "order_events", refuse)
        monkeypatch.setattr(geometry, "all_orders", refuse)
        monkeypatch.setattr(model, "_permutation_table", small_tables_only)
        out = tmp_path / "out.json"
        assert main(["distance", "--input", path, "--output", str(out)]) == 0
        argv = ["caratheodory", "--k", "2", "--input", path, "--output", str(out)]
        assert main(argv) == 0

    @pytest.mark.parametrize("name", ["poly8", "aru7"])
    def test_distance_does_not_depend_on_the_blas_thread_count(self, tmp_path, name):
        # The 7-id mixture of all orders grows 322 active vertices; a Gram
        # matrix built there by a matrix product changed with the threads.
        if name == "poly8":
            path = polytope_manifest(tmp_path, 6)
        else:
            inst = gen.aru_order_mixture(name, make_space(5, 2), 1, 0)
            path = tmp_path / "aru7.json"
            path.write_text(inst.manifest_text())
        digests = []
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "PYTHONPATH": SRC,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            }
            argv = ["-m", "aggchoice.cli", "distance", "--input", str(path)]
            out = subprocess.run(
                [sys.executable, *argv],
                env=env,
                check=True,
                capture_output=True,
            ).stdout
            digests.append(hashlib.sha256(out).hexdigest())
        assert digests[0] == digests[1]
