
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggchoice import (
    AggregateSpace,
    AxiomViolated,
    ChoiceDomain,
    DomainClosureViolated,
    IncompleteDomain,
    InvalidProbability,
    LinearOrder,
    MenuCollectionFamily,
    PreferenceDistribution,
    StochasticChoice,
    VerificationBug,
    aru_evaluate,
    bm_polynomial,
    check_aru_rational,
    check_limited_monotonicity,
    check_partial_ru,
    check_ru_rational,
    forward_evaluate,
    linprog,
    rationalize,
    vertex_choice,
)
from aggchoice import axioms
from aggchoice.axioms import CERTIFICATE_TOL, LP_TOL, _partial_ru_lp, bm_values
from aggchoice.model import all_orders
from aggchoice.tolerances import AXIOM_TOL, PROB_TOL, bm_tol, flow_tol
from conftest import (
    pushed_flow_table,
    random_composition,
    random_preferences,
    random_table,
    random_vertex,
    random_vertex_mixture,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import instances as gen  # noqa: E402  (the benchmark's instance generator)

X, Y, A0 = "x", "y", "a0"


def table(space, rows):
    return StochasticChoice(space, {frozenset(k): v for k, v in rows.items()})


def least_bm_sum(rho, ground):
    """The least Block-Marschak sum of the full domain on `ground`."""
    values = bm_values(rho, AggregateSpace(ground, ()))
    return min(values[k, s] for k, s in np.ndindex(values.shape) if s >> k & 1)


class TestLimitedMonotonicity:
    def test_violation_flagged(self, three_space):
        rho = table(
            three_space,
            {
                (X, Y): {X: 0.5, Y: 0.5},
                (X, Y, A0): {X: 0.6, Y: 0.2, A0: 0.2},
            },
        )
        report = check_limited_monotonicity(rho, three_space)
        assert not report.passed
        (violation,) = report.violations
        assert violation.subject == (frozenset({X, Y}), frozenset({X, Y, A0}), X)
        assert violation.slack == pytest.approx(-0.1, abs=1e-12)

    def test_equality_allowed(self, three_space):
        rho = table(
            three_space,
            {
                (X, Y): {X: 0.5, Y: 0.5},
                (X, Y, A0): {X: 0.5, Y: 0.3, A0: 0.2},
            },
        )
        assert check_limited_monotonicity(rho, three_space).passed

    def test_no_constraint_on_non_atomic_cells(self, three_space):
        # The outside aggregate may gain probability when menus grow.
        rho = table(
            three_space,
            {
                (X,): {X: 1.0},
                (X, Y): {X: 0.5, Y: 0.5},
                (X, A0): {X: 0.8, A0: 0.2},
                (X, Y, A0): {X: 0.2, Y: 0.1, A0: 0.7},
            },
        )
        assert check_limited_monotonicity(rho, three_space).passed

    def test_domain_closure_required(self, three_space):
        rho = table(three_space, {(X, A0): {X: 0.5, A0: 0.5}})
        with pytest.raises(DomainClosureViolated):
            check_limited_monotonicity(rho, three_space)


class TestBlockMarschak:
    def test_two_item_cell(self):
        space = AggregateSpace((X, Y), ())
        rho = table(
            space,
            {(X,): {X: 1.0}, (Y,): {Y: 1.0}, (X, Y): {X: 0.6, Y: 0.4}},
        )
        assert bm_polynomial(rho, space, frozenset({X}), X) == pytest.approx(0.4)

    def test_three_item_negative_cell(self):
        space = AggregateSpace((X, Y, "z"), ())
        rho = table(
            space,
            {
                (X,): {X: 1.0},
                (Y,): {Y: 1.0},
                ("z",): {"z": 1.0},
                (X, Y): {X: 0.6, Y: 0.4},
                (X, "z"): {X: 0.6, "z": 0.4},
                (Y, "z"): {Y: 0.5, "z": 0.5},
                (X, Y, "z"): {X: 0.1, Y: 0.5, "z": 0.4},
            },
        )
        assert bm_polynomial(rho, space, frozenset({X}), X) == pytest.approx(
            1 - 0.6 - 0.6 + 0.1
        )

    def test_aru_outputs_nonnegative(self):
        rng = np.random.default_rng(21)
        space = AggregateSpace((X, Y, "z"), ())
        dom = ChoiceDomain.full(space)
        for _ in range(20):
            mu = random_preferences(space.members, rng)
            rho = aru_evaluate(mu, dom)
            for menu in dom.menus:
                for item in menu:
                    assert bm_polynomial(rho, space, menu, item) >= -1e-12

    def test_incomplete_domain(self):
        space = AggregateSpace((X, Y), ())
        rho = table(space, {(X,): {X: 1.0}})
        with pytest.raises(IncompleteDomain):
            bm_polynomial(rho, space, frozenset({X}), X)


class TestPartialRu:
    def test_uniform_passes_both_routes(self):
        space = AggregateSpace((X, Y, "z"), ())
        dom = ChoiceDomain.full(space)
        rho = StochasticChoice(
            space, {m: {a: 1 / len(m) for a in m} for m in dom.menus}
        )
        bm = check_partial_ru(rho, space)
        lp = _partial_ru_lp(rho, space)
        assert bm.method == "bm" and lp.method == "lp"
        assert bm.passed and lp.passed
        replay = aru_evaluate(lp.certificate, dom)
        assert replay.max_cell_difference(rho) < 1e-9

    def test_negative_bm_cell_fails_both_routes(self):
        space = AggregateSpace((X, Y, "z"), ())
        rho = table(
            space,
            {
                (X,): {X: 1.0},
                (Y,): {Y: 1.0},
                ("z",): {"z": 1.0},
                (X, Y): {X: 0.6, Y: 0.4},
                (X, "z"): {X: 0.6, "z": 0.4},
                (Y, "z"): {Y: 0.5, "z": 0.5},
                (X, Y, "z"): {X: 0.1, Y: 0.5, "z": 0.4},
            },
        )
        assert not check_partial_ru(rho, space).passed
        assert not _partial_ru_lp(rho, space).passed

    def test_aru_round_trip_passes(self):
        rng = np.random.default_rng(31)
        space = AggregateSpace((X, Y, "z"), ())
        dom = ChoiceDomain.full(space)
        for _ in range(50):
            rho = aru_evaluate(random_preferences(space.members, rng), dom)
            assert check_partial_ru(rho, space).passed

    def test_auto_picks_bm_on_full_domain(self, three_space, three_domain):
        rho = aru_evaluate(
            random_preferences(three_space.members, np.random.default_rng(1)),
            three_domain,
        )
        assert check_partial_ru(rho, three_space).method == "bm"

    def test_bm_refuses_partial_domain(self, three_space):
        rho = table(
            three_space,
            {(X,): {X: 1.0}, (X, A0): {X: 0.4, A0: 0.6}},
        )
        with pytest.raises(IncompleteDomain):
            bm_values(rho, three_space)
        assert check_partial_ru(rho, three_space).method == "lp"

    def test_bm_lp_agreement_random(self):
        rng = np.random.default_rng(99)
        for atoms in (2, 3, 4):
            space = AggregateSpace(tuple(f"i{k}" for k in range(atoms)), ())
            dom = ChoiceDomain.full(space)
            for _ in range(40):
                rho = random_table(space, dom, rng)
                bm = check_partial_ru(rho, space).passed
                lp = _partial_ru_lp(rho, space).passed
                assert bm == lp

    @given(p12=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_two_alternatives_always_rational(self, p12):
        # With two alternatives every binary-share table is consistent
        # with a random-utility process; both routes must agree on that.
        space = AggregateSpace((X, Y), ())
        rho = StochasticChoice(
            space,
            {
                frozenset({X}): {X: 1.0},
                frozenset({Y}): {Y: 1.0},
                frozenset({X, Y}): {X: p12, Y: 1.0 - p12},
            },
        )
        assert check_partial_ru(rho, space).passed
        assert _partial_ru_lp(rho, space).passed


def atomic_space(n):
    return AggregateSpace(tuple(f"i{k}" for k in range(n)), ())


class TestBlockMarschakFlow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_moebius_values_match_bm_polynomial(self, n):
        # The pass adds the same table values as the per-cell sum, in
        # another order: each of the 2^n terms may round once.
        space = atomic_space(n)
        dom = ChoiceDomain.full(space)
        tol = 2**n * np.finfo(float).eps
        rng = np.random.default_rng(n)
        for rho in (
            random_table(space, dom, rng),
            aru_evaluate(random_preferences(space.members, rng, 30), dom),
        ):
            values = bm_values(rho, space)
            for menu in dom.menus:
                s = sum(1 << space.index(a) for a in menu)
                for item in menu:
                    expected = bm_polynomial(rho, space, menu, item)
                    assert abs(values[space.index(item), s] - expected) <= tol

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_certificate_replays_within_its_support_bound(self, n):
        space = atomic_space(n)
        dom = ChoiceDomain.full(space)
        rng = np.random.default_rng(40 + n)
        for support in (1, 5, 400):
            rho = aru_evaluate(random_preferences(space.members, rng, support), dom)
            report = check_partial_ru(rho, space)
            assert report.passed and report.method == "bm"
            assert len(report.certificate.weights) <= n * 2 ** (n - 1)
            replay = aru_evaluate(report.certificate, dom)
            assert replay.max_cell_difference(rho) <= flow_tol(n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_clipped_flow_replays_within_its_bound(self, n):
        # Start from the flow of a few orders, then move mass from
        # random chains onto the first order's chain, so edges the orders
        # never use carry about -0.9 * AXIOM_TOL.  Data that still passes
        # gives a certificate that replays within flow_tol inside the
        # check, and a witness that replays within its bound.
        space = AggregateSpace(tuple(f"i{k}" for k in range(n)), (A0,))
        clipped = 0
        for trial in range(12):
            rng = np.random.default_rng(100 * n + trial)
            rho = pushed_flow_table(space, rng, 0.9, 0.1)
            report = check_ru_rational(rho, space)
            if report.passed:
                low = bm_values(rho, AggregateSpace(space.atomic, ())).min()
                clipped += low < -0.5 * AXIOM_TOL
                rationalize(rho, space)
        assert clipped > 0

    def test_certificate_is_independent_of_the_hash_seed(self):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        script = (
            "import numpy as np\n"
            "from aggchoice import *\n"
            "space = AggregateSpace(('a', 'b', 'c', 'd'), ())\n"
            "rng = np.random.default_rng(5)\n"
            "orders = {LinearOrder(tuple(rng.permutation(space.members))): 1.0"
            " for _ in range(12)}\n"
            "mu = PreferenceDistribution({o: 1 / len(orders) for o in orders})\n"
            "rho = aru_evaluate(mu, ChoiceDomain.full(space))\n"
            "report = check_partial_ru(rho, space)\n"
            "print([(o.ranking, w.hex()) for o, w in report.certificate.items()])\n"
        )
        outputs = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            run = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            )
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].count("(") > 2

    def test_negative_value_gives_no_certificate(self):
        space = AggregateSpace((X, Y, "z"), ())
        rho = table(
            space,
            {
                (X,): {X: 1.0},
                (Y,): {Y: 1.0},
                ("z",): {"z": 1.0},
                (X, Y): {X: 0.6, Y: 0.4},
                (X, "z"): {X: 0.6, "z": 0.4},
                (Y, "z"): {Y: 0.5, "z": 0.5},
                (X, Y, "z"): {X: 0.1, Y: 0.5, "z": 0.4},
            },
        )
        report = check_partial_ru(rho, space)
        assert not report.passed
        assert report.certificate is None
        first = report.violations[0]
        assert first.subject == (frozenset({X}), X)
        assert first.lhs == pytest.approx(1 - 0.6 - 0.6 + 0.1)

    @pytest.mark.parametrize("menu", [(X,), (X, Y), (X, Y, "z")])
    def test_a_false_negative_value_raises(self, monkeypatch, menu):
        # Each reported cell is replayed through bm_polynomial, so a
        # Möbius pass that invents a negative value cannot fail the RU
        # check, nor the ARU check on a full domain.
        space = AggregateSpace((X, Y, "z"), ())
        mu = random_preferences(space.members, np.random.default_rng(8))
        rho = aru_evaluate(mu, ChoiceDomain.full(space))
        checks = (check_ru_rational, check_aru_rational)
        assert all(check(rho, space).passed for check in checks)
        s = sum(1 << space.index(a) for a in menu)

        def corrupted(rho, space):
            values = bm_values(rho, space)
            values[0, s] = -0.25
            return values

        monkeypatch.setattr(axioms, "bm_values", corrupted)
        for check in checks:
            with pytest.raises(VerificationBug, match="alternating sum"):
                check(rho, space)

    @pytest.mark.parametrize("n", [7, 8])
    def test_slack_covers_the_singleton_sum(self, n):
        # Six orders of n ids; the first ranks x first, so x wins every
        # menu.  Each cell of x's singleton sum, the singleton's own
        # aside, moves by 0.9 * PROB_TOL against its sign (the row's top
        # other id takes up the difference), so the data stay within
        # PROB_TOL of RU data.  The 127 cells at 8 ids give -1.14e-10,
        # beyond AXIOM_TOL; the 63 at 7 ids give -5.7e-11.
        space = atomic_space(n)
        domain = ChoiceDomain.full(space)
        rng = np.random.default_rng(3)
        orders = [LinearOrder(tuple(rng.permutation(space.members))) for _ in range(6)]
        weights = rng.random(6) + 0.05
        weights /= weights.sum()
        mu = PreferenceDistribution({o: float(w) for o, w in zip(orders, weights)})
        rho = aru_evaluate(mu, domain)
        rows = {m: dict(rho.row(m)) for m in domain.menus}
        x = orders[0].ranking[0]
        for menu, row in rows.items():
            if x in menu and len(menu) > 1:
                move = 0.9 * PROB_TOL * (-1) ** (len(menu) - 1)
                other = max(menu - {x}, key=row.__getitem__)
                row[x] -= move
                row[other] += move
        rho = StochasticChoice(space, rows)
        k = space.index(x)
        low = bm_values(rho, space)[k, 1 << k]
        assert low == pytest.approx(-0.9 * PROB_TOL * (2 ** (n - 1) - 1), rel=0.01)
        report = check_partial_ru(rho, space)
        assert report.passed and report.method == "bm"


class TestRuRational:
    def test_vertices_pass(self, three_space, three_domain):
        rng = np.random.default_rng(77)
        for _ in range(25):
            v = random_vertex(three_space, three_domain, rng)
            assert check_ru_rational(v, three_space).passed

    def test_mixtures_pass(self, three_space, three_domain):
        rng = np.random.default_rng(78)
        for _ in range(50):
            rho = random_vertex_mixture(three_space, three_domain, rng, 5)
            assert check_ru_rational(rho, three_space).passed

    def test_no_atomic_ids_pass_without_a_certificate(self):
        space = AggregateSpace((), (A0, "a1"))
        rho = random_vertex_mixture(
            space, ChoiceDomain.full(space), np.random.default_rng(3)
        )
        report = check_ru_rational(rho, space)
        assert report.passed and report.method == "bm"
        assert report.certificate is None

    def test_lm_violation_fails(self, three_space):
        rho = table(
            three_space,
            {
                (X, Y): {X: 0.5, Y: 0.5},
                (X, Y, A0): {X: 0.7, Y: 0.1, A0: 0.2},
            },
        )
        report = check_ru_rational(rho, three_space)
        assert not report.passed
        assert report.violations[0].kind == "limited-monotonicity"


class TestAruRational:
    def test_rational_vertex_passes_with_delta(self, three_space, three_domain):
        order = LinearOrder((X, Y, A0))
        rho = vertex_choice(order, MenuCollectionFamily.empty(), three_domain)
        report = check_aru_rational(rho, three_space)
        assert report.passed
        assert report.certificate.weights.get(order, 0.0) == pytest.approx(1.0)

    def test_menu_effect_vertex_fails(self, three_space, three_domain):
        fam = MenuCollectionFamily.single(A0, [frozenset({X, A0})])
        rho = vertex_choice(LinearOrder((X, Y, A0)), fam, three_domain)
        assert not check_aru_rational(rho, three_space).passed

    def test_menu_independent_forward_passes(self, outside_corr):
        from aggchoice import CompositionDistribution, CompositionTuple

        rng = np.random.default_rng(13)
        space = outside_corr.space
        dom = ChoiceDomain.full(space)
        shared = rng.random(3) + 0.05
        shared /= shared.sum()
        subsets = [frozenset("z"), frozenset("w"), frozenset({"z", "w"})]
        lam = CompositionDistribution(
            {
                menu: {
                    CompositionTuple.of({A0: s}): float(w)
                    for s, w in zip(subsets, shared)
                }
                for menu in dom.menus
                if A0 in menu
            }
        )
        mu = random_preferences(outside_corr.ground, rng)
        rho = forward_evaluate(mu, outside_corr, lam, dom)
        assert check_aru_rational(rho, space).passed

    def test_certificate_reproduces(self, three_space, three_domain):
        rng = np.random.default_rng(14)
        mu = random_preferences(three_space.members, rng)
        rho = aru_evaluate(mu, three_domain)
        report = check_aru_rational(rho, three_space)
        assert report.passed
        replay = aru_evaluate(report.certificate, three_domain)
        assert replay.max_cell_difference(rho) < 1e-9


class TestAruBlockMarschak:
    """On a full domain, Block-Marschak sums over the aggregates decide a
    failing ARU check at the partial check's slack, `bm_tol`; the order
    LP is the reference and decides the rest."""

    @given(
        shape=st.sampled_from([(2, 1), (1, 2), (3, 1), (2, 2), (4, 1), (3, 2), (2, 3)]),
        seed=st.integers(0, 2**16),
        support=st.integers(1, 5),
        eps=st.sampled_from([0.0, 1.0] + [10.0**-k for k in range(1, 13)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_order_lp(self, shape, seed, support, eps):
        # eps = 0 is a sparse ARU mixture, eps = 1 a vertex mixture
        # forced out of the ARU polytope, and the rest their blends.
        space = gen.make_space(*shape)
        domain = ChoiceDomain.full(space)
        rng = np.random.default_rng(seed)
        aru = aru_evaluate(random_preferences(space.members, rng, support), domain)
        forced = gen.vertex_mixture("f", space, seed, 0, 8, force_non_aru=True).rho
        rho = StochasticChoice(
            space,
            {
                m: {a: (1 - eps) * aru.prob(m, a) + eps * forced.prob(m, a) for a in m}
                for m in domain.menus
            },
        )
        report = check_aru_rational(rho, space)
        n, atoms = len(space.members), len(space.atomic)
        least = least_bm_sum(rho, space.members)
        atomic_least = least_bm_sum(rho, space.atomic)
        # The atomic sums are read only when no aggregate sum fails.
        ground = space.members if least < -bm_tol(n) else space.atomic
        if -LP_TOL <= least < -bm_tol(n) or (
            least >= -bm_tol(n) and atomic_least < -bm_tol(atoms)
        ):
            # A sum over the aggregates in [-LP_TOL, -bm_tol), or an
            # atomic sum below -bm_tol, fails the table, as the partial
            # check fails it, whatever the LP would accept.
            assert not report.passed and report.method == "bm"
        else:
            # Outside the band the slack makes no difference: the LP,
            # which accepts artificial mass up to LP_TOL, agrees.
            reference = axioms._lp_rationalize(
                rho, list(rho.menus), space.members, "aru-lp-infeasible"
            )
            assert report.passed == reference.passed
        if eps == 1.0:
            assert report.method == "bm" and report.violations
        if report.method != "bm":
            return
        for v in report.violations:
            assert v.kind == "block-marschak" and v.lhs < -bm_tol(len(ground))
            replayed = bm_polynomial(rho, AggregateSpace(ground, ()), *v.subject)
            assert abs(replayed - v.lhs) <= flow_tol(len(ground))

    @staticmethod
    def moved(rho, menu, source, target, eps):
        """`rho` with `eps` of `menu`'s mass moved from `source` to `target`."""
        rows = {m: dict(row) for m, row in rho.table.items()}
        rows[menu][source] -= eps
        rows[menu][target] += eps
        return StochasticChoice(rho.space, rows)

    def test_a_boundary_table_fails_both_checks(self):
        # One order, with 1.5e-10 moved off its best id in the atomic
        # grand menu: three atomic sums fall to -1.5e-10, inside the
        # LP's acceptance but outside bm_tol.  The ARU check used to
        # pass it by the LP while the RU check failed it, so
        # `rationalize` raised on a table called ARU-rational.
        grand = frozenset({"x0", "x1", "x2"})
        space = gen.make_space(3, 1)
        order = LinearOrder(("x0", "x1", "a0", "x2"))
        rho = aru_evaluate(PreferenceDistribution.degenerate(order), ChoiceDomain.full(space))
        rho = self.moved(rho, grand, "x0", "x2", 1.5e-10)
        aru, ru = check_aru_rational(rho, space), check_ru_rational(rho, space)
        assert not aru.passed and aru.method == "bm" and len(aru.violations) == 4
        assert not ru.passed and ru.method == "bm"
        assert [v.kind for v in ru.violations].count("block-marschak") == 3
        with pytest.raises(AxiomViolated):
            rationalize(rho, space)
        # Without non-atomic ids the two checks sum over one lattice.
        space = gen.make_space(3, 0)
        order = LinearOrder(("x0", "x1", "x2"))
        rho = aru_evaluate(PreferenceDistribution.degenerate(order), ChoiceDomain.full(space))
        rho = self.moved(rho, grand, "x0", "x2", 1.5e-10)
        aru, ru = check_aru_rational(rho, space), check_ru_rational(rho, space)
        assert not aru.passed and aru.violations == ru.violations

    @staticmethod
    def perturbed(space, mixture, off, eps):
        """The table of `mixture` with eps / 2 taken off the table of
        each order in `off` and eps put on its first order's table."""
        domain = ChoiceDomain.full(space)

        def evaluate(order):
            return aru_evaluate(PreferenceDistribution.degenerate(order), domain)

        base = aru_evaluate(PreferenceDistribution(mixture), domain)
        first = evaluate(next(iter(mixture)))
        taken = [evaluate(order) for order in off]
        return StochasticChoice(
            space,
            {
                m: {
                    a: base.prob(m, a)
                    + eps * first.prob(m, a)
                    - sum(eps / 2 * t.prob(m, a) for t in taken)
                    for a in m
                }
                for m in domain.menus
            },
        )

    def test_an_atomic_sum_split_over_aggregate_sums_fails_both_checks(self):
        # With one non-atomic id, each atomic sum is the sum of two
        # aggregate sums.  Here q(x1, {x0, x1}) is -1.5e-10, split over
        # two aggregate sums each above -bm_tol.  The ARU check used to
        # pass the table by the LP (a 4-order certificate) while the RU
        # check failed it.
        space = gen.make_space(3, 1)
        order = lambda *ids: LinearOrder(ids)  # noqa: E731
        mixture = {
            order("x1", "a0", "x2", "x0"): 0.42788219581455345,
            order("x2", "a0", "x0", "x1"): 0.3941415149116165,
            order("a0", "x1", "x2", "x0"): 0.14191580314108385,
            order("x0", "x2", "x1", "a0"): 0.03606048613274619,
        }
        off = [order("x2", "x1", "a0", "x0"), order("x2", "a0", "x1", "x0")]
        rho = self.perturbed(space, mixture, off, 1.5e-10)
        assert least_bm_sum(rho, space.members) >= -bm_tol(4)
        reference = axioms._lp_rationalize(
            rho, list(rho.menus), space.members, "aru-lp-infeasible"
        )
        assert reference.passed and len(reference.certificate.support) == 4
        aru, ru = check_aru_rational(rho, space), check_ru_rational(rho, space)
        assert not ru.passed and not aru.passed and aru.method == "bm"
        [cell] = aru.violations
        assert cell.subject == (frozenset({"x0", "x1"}), "x1")
        assert -1.6e-10 < cell.lhs < -1.4e-10
        assert ru.violations == aru.violations

    @given(
        shape=st.sampled_from([(3, 1), (2, 2), (3, 2), (4, 1)]),
        seed=st.integers(0, 2**16),
        support=st.integers(2, 5),
        eps=st.sampled_from([1.5e-10, 4e-10, 1e-9]),
    )
    @settings(max_examples=80, deadline=None)
    def test_a_failing_partial_check_fails_the_aru_check(
        self, shape, seed, support, eps
    ):
        # Order mixtures just off the ARU polytope: eps / 2 taken off the
        # tables of two support orders with two neighbours swapped, and
        # eps put on the first order's.  Where the mixture has less than
        # eps / 2 on a cell taken from, the table is no table.
        space = gen.make_space(*shape)
        rng = np.random.default_rng(seed)
        mixture = random_preferences(space.members, rng, support).weights
        off = []
        for _ in range(2):
            ranking = list(list(mixture)[int(rng.integers(len(mixture)))].ranking)
            i = int(rng.integers(len(ranking) - 1))
            ranking[i : i + 2] = ranking[i + 1], ranking[i]
            off.append(LinearOrder(tuple(ranking)))
        try:
            rho = self.perturbed(space, mixture, off, eps)
        except InvalidProbability:
            assume(False)
        if not check_partial_ru(rho, space).passed:
            assert not check_aru_rational(rho, space).passed

    @pytest.mark.parametrize("shape", [(2, 1), (3, 1), (2, 2), (4, 1), (3, 2), (3, 0), (4, 0)])
    def test_an_aru_rational_boundary_table_is_ru_rational(self, shape):
        # One- and two-order tables, each with eps just above AXIOM_TOL
        # moved from the larger to the smaller of two ids of one menu:
        # sums in [-LP_TOL, -bm_tol) must not pass one check and fail
        # the other.
        space = gen.make_space(*shape)
        domain = ChoiceDomain.full(space)
        menus = [m for m in domain.menus if len(m) >= 2]
        for seed, support in itertools.product(range(15), (1, 2)):
            rng = np.random.default_rng([seed, support, *shape])
            prefs = random_preferences(space.members, rng, support)
            rho = aru_evaluate(prefs, domain)
            menu = menus[int(rng.integers(len(menus)))]
            pairs = [
                sorted(pair, key=lambda a: -rho.prob(menu, a))
                for pair in itertools.combinations(space.sort(menu), 2)
                if max(rho.prob(menu, a) for a in pair) > 0.0
            ]
            larger, smaller = pairs[int(rng.integers(len(pairs)))]
            for eps in (1.2e-10, 2e-10, 4e-10, 8e-10):
                if rho.prob(menu, larger) < eps:
                    continue
                moved = self.moved(rho, menu, larger, smaller, eps)
                if check_aru_rational(moved, space).passed:
                    assert check_ru_rational(moved, space).passed
                    rationalize(moved, space)

    def test_the_report_carries_its_replay_bound(self):
        space = gen.make_space(3, 1)
        rho = gen.aru_order_mixture("a", space, 1, 0).rho
        lp = check_aru_rational(rho, space)
        assert lp.method == "lp" and lp.replay_bound == CERTIFICATE_TOL
        flow = check_ru_rational(rho, space)
        assert flow.method == "bm" and flow.replay_bound == flow_tol(3)
        forced = gen.vertex_mixture("f", space, 1, 0, 8, force_non_aru=True).rho
        failed = check_aru_rational(forced, space)
        assert failed.certificate is None and failed.replay_bound == 0.0

    def test_a_decisive_failure_runs_no_lp(self, monkeypatch):
        calls = []
        solve, events = linprog.solve_feasibility, axioms.order_events

        def spy_solve(a, b, tol):
            calls.append("solve")
            return solve(a, b, tol)

        def spy_events(ground, cells):
            calls.append("events")
            return events(ground, cells)

        monkeypatch.setattr(linprog, "solve_feasibility", spy_solve)
        monkeypatch.setattr(axioms, "order_events", spy_events)
        space = gen.make_space(3, 2)
        forced = gen.vertex_mixture("f", space, 1, 0, 8, force_non_aru=True).rho
        report = check_aru_rational(forced, space)
        assert not report.passed and report.method == "bm"
        assert calls == []
        aru = gen.aru_order_mixture("a", space, 1, 0).rho
        report = check_aru_rational(aru, space)
        assert report.passed and report.method == "lp"
        assert calls == ["events", "solve"]


class TestSoundnessChain:
    def test_aru_implies_ru_implies_partial(self, three_space, three_domain):
        rng = np.random.default_rng(15)
        for _ in range(20):
            mu = random_preferences(three_space.members, rng)
            rho = aru_evaluate(mu, three_domain)
            assert check_aru_rational(rho, three_space).passed
            assert check_ru_rational(rho, three_space).passed
            assert check_partial_ru(rho, three_space).passed

    def test_forward_necessity(self):
        rng = np.random.default_rng(16)
        from aggchoice import AggregationCorrespondence

        space = AggregateSpace((X, Y), (A0,))
        corr = AggregationCorrespondence.identity_atomic(space, {A0: ("z", "w")})
        dom = ChoiceDomain.full(space)
        for _ in range(30):
            mu = random_preferences(corr.ground, rng)
            lam = random_composition(corr, dom, rng)
            rho = forward_evaluate(mu, corr, lam, dom)
            assert check_ru_rational(rho, space).passed


class TestCertificateReplay:
    """A feasible LP point is replayed against the data, never trusted."""

    @pytest.fixture
    def lying_solver(self, monkeypatch):
        # Claims feasibility with all mass on the first order.
        def solve(a, b, tol):
            x = np.zeros(a.shape[1])
            x[0] = 1.0
            return linprog.FeasibilityResult(True, x, 0.0)

        monkeypatch.setattr(linprog, "solve_feasibility", solve)

    def uniform(self, space):
        domain = ChoiceDomain.full(space)
        return StochasticChoice(
            space, {m: {a: 1.0 / len(m) for a in m} for m in domain.menus}
        )

    def test_aru_check_raises(self, three_space, lying_solver):
        with pytest.raises(VerificationBug):
            check_aru_rational(self.uniform(three_space), three_space)

    def test_partial_lp_route_raises(self, three_space, lying_solver):
        with pytest.raises(VerificationBug):
            _partial_ru_lp(self.uniform(three_space), three_space)

    def test_block_marschak_route_raises(self, three_space, monkeypatch):
        # Chains that put all mass on one order cannot give uniform data.
        monkeypatch.setattr(axioms, "_bm_flow_chains", lambda values: [((0, 1), 1.0)])
        with pytest.raises(VerificationBug, match="Block-Marschak certificate"):
            check_partial_ru(self.uniform(three_space), three_space)

    def test_event_matrix_reaches_the_solver_as_bools(self, three_space, monkeypatch):
        seen = []
        solve = linprog.solve_feasibility

        def spy(a, b, tol):
            seen.append(a)
            return solve(a, b, tol)

        monkeypatch.setattr(linprog, "solve_feasibility", spy)
        assert check_aru_rational(self.uniform(three_space), three_space).passed
        (a,) = seen
        assert a.dtype == bool
        assert a[-1].all()

    def test_renormalization_drift_is_allowed(self, three_space, monkeypatch):
        # Every LP row misses by just under LP_TOL: the mass row is high
        # while the point-mass cell on the full menu is low, so the
        # renormalized certificate misses that cell by nearly 2 * LP_TOL.
        eps = 0.9 * LP_TOL
        ground = three_space.members
        first = LinearOrder(ground)
        others = [LinearOrder((Y, X, A0)), LinearOrder((A0, X, Y))]
        assert first.ranking[0] == X
        orders = all_orders(ground)

        def solve(a, b, tol):
            x = np.zeros(a.shape[1])
            x[orders.index(first)] = 1.0 - eps
            for order in others:
                x[orders.index(order)] = eps
            assert np.abs(a @ x - b).max() <= tol
            return linprog.FeasibilityResult(True, x, 0.0)

        monkeypatch.setattr(linprog, "solve_feasibility", solve)
        rho = aru_evaluate(
            PreferenceDistribution({first: 1.0}), ChoiceDomain.full(three_space)
        )
        report = check_aru_rational(rho, three_space)
        assert report.passed
        full = frozenset(ground)
        replay = aru_evaluate(report.certificate, ChoiceDomain.full(three_space))
        assert LP_TOL < 1.0 - replay.prob(full, X) <= CERTIFICATE_TOL
