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
    vertex_choice,
)
from aggchoice import model
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
        menu = {"a", "c", "d"}
        total = math.fsum(rum_prob(mu, menu, a) for a in menu)
        assert total == pytest.approx(1.0, abs=1e-12)


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

    def test_messages_name_the_sorted_menu(self, three_space):
        menu = frozenset({Y, A0, X})
        with pytest.raises(InvalidProbability) as err:
            StochasticChoice(three_space, {menu: {X: 0.5, Y: 0.25, A0: 0.5}})
        assert str(err.value) == (
            "menu ['a0', 'x', 'y']: total mass 1.25 differs from 1"
        )
        with pytest.raises(InvalidProbability) as err:
            CompositionDistribution(
                {menu: {CompositionTuple.of({A0: {"z"}}): -0.5}}
            )
        assert str(err.value) == (
            "composition for ['a0', 'x', 'y']: negative weight -0.5 for "
            "CompositionTuple(parts=(('a0', frozenset({'z'})),))"
        )
        with pytest.raises(InvalidProbability) as err:
            PreferenceDistribution({LinearOrder(("x", "y")): math.inf})
        assert str(err.value) == (
            "preference distribution: non-finite weight inf for "
            "LinearOrder(ranking=('x', 'y'))"
        )


#: The cells of the full domain on {x, y, a0}: seven menus of one to
#: three cells each, side by side.
CELLS = ChoiceDomain.full(AggregateSpace((X, Y), (A0,))).cells()
STARTS = [c for c in range(len(CELLS)) if c == 0 or CELLS[c][0] != CELLS[c - 1][0]]


def table_errors(rows):
    """The type and message of the first table of `rows` whose check
    fails, each menu's row built in the menu's iteration order, or None."""
    space = AggregateSpace((X, Y), (A0,))
    menus = dict.fromkeys(m for m, _ in CELLS)
    for row in rows.tolist():
        values = dict(zip(CELLS, row))
        try:
            StochasticChoice(space, {m: {a: values[m, a] for a in m} for m in menus})
        except (InvalidProbability, OverflowError) as err:
            return type(err), str(err)
    return None


@st.composite
def near_simplex_rows(draw):
    """Rows of CELLS values: each menu a random simplex point with some
    zeros, some entries moved within PROB_TOL, negated (a zero to -0.0)
    or clipped, and some entries off the simplex."""
    count = draw(st.integers(0, 4))
    rows = []
    for _ in range(count):
        row = []
        for lo, hi in zip(STARTS, STARTS[1:] + [len(CELLS)]):
            weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
            weights = draw(
                st.lists(weight, min_size=hi - lo, max_size=hi - lo).filter(
                    lambda w: math.fsum(w) > 0.0
                )
            )
            row += [w / math.fsum(weights) for w in weights]
        rows.append(row)
    edits = st.tuples(
        st.integers(0, max(count - 1, 0)),
        st.integers(0, len(CELLS) - 1),
        st.one_of(
            st.floats(-9e-13, 9e-13).map(lambda d: ("drift", d)),
            st.sampled_from(
                [("negate", 0.0), ("set", -0.0), ("set", -5e-13), ("set", -1e-12)]
            ),
            st.sampled_from(
                [
                    ("set", math.nan),
                    ("set", math.inf),
                    ("set", -math.inf),
                    ("set", -2e-12),
                    ("set", 1e308),
                    ("drift", 1e-6),
                ]
            ),
        ),
    )
    for i, c, (kind, value) in draw(st.lists(edits, max_size=4)) if count else []:
        if kind == "drift":
            rows[i][c] += value
        else:
            rows[i][c] = -rows[i][c] if kind == "negate" else value
    return np.array(rows, dtype=float).reshape(count, len(CELLS))


class TestValidateRows:
    """`_validate_rows` is `StochasticChoice`'s check of each row's tables."""

    @given(rows=near_simplex_rows())
    @settings(max_examples=120, deadline=None)
    def test_matches_the_table_check(self, rows):
        expected = table_errors(rows)
        if expected is not None:
            with pytest.raises(expected[0]) as err:
                model._validate_rows(rows, CELLS)
            assert str(err.value) == expected[1]
            return
        cleaned = [
            [
                model._validate_simplex(
                    {a: row[c] for c, (m, a) in enumerate(CELLS) if m == menu}, "menu"
                )[a]
                for menu, a in CELLS
            ]
            for row in rows.tolist()
        ]
        got = model._validate_rows(rows, CELLS)
        assert got.shape == rows.shape
        assert got.tobytes() == np.array(cleaned).reshape(rows.shape).tobytes()

    @pytest.mark.parametrize(
        "value, message",
        [
            (math.nan, "non-finite weight nan for 'y'"),
            (-2e-12, "negative weight -2e-12 for 'y'"),
            (0.5, "total mass 1.1666666666666665 differs from 1"),
        ],
    )
    def test_first_failing_menu_raises_its_table_error(self, value, message):
        # Rows 1 and 2 fail in the grand menu and row 2 also in {y}: the
        # error is row 1's.
        rows = np.array([[1 / len(m) for m, _ in CELLS]] * 3)
        grand = CELLS.index((frozenset({X, Y, A0}), Y))
        rows[1:, grand] = value
        rows[2, CELLS.index((frozenset({Y}), Y))] = math.inf
        with pytest.raises(InvalidProbability) as err:
            model._validate_rows(rows, CELLS)
        assert str(err.value) == f"menu ['a0', 'x', 'y']: {message}"
        assert (InvalidProbability, str(err.value)) == table_errors(rows)


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


def _per_menu_forward_evaluate(prefs, correspondence, composition, domain):
    """The reference: one winner call and one bincount per menu."""
    space = correspondence.space
    ground = correspondence.ground
    position = {x: i for i, x in enumerate(ground)}
    owner = correspondence.owner_map()
    labels = np.array([space.index(owner[x]) for x in ground])
    ranks = prefs.ranks(ground)
    weights = np.fromiter(prefs.weights.values(), float)
    table = {}
    for menu in domain.menus:
        weighted = list(model.realizations(menu, correspondence, composition))
        realized_sets = [[position[x] for x in ids] for _, ids in weighted]
        picks = labels[model._winners(ranks, realized_sets)].ravel()
        products = np.outer([w for w, _ in weighted], weights).ravel()
        mass = np.bincount(picks, products, len(space.members))
        table[menu] = {a: float(mass[space.index(a)]) for a in menu}
    return StochasticChoice(space, table)


@given(
    seed=st.integers(0, 2**32 - 1),
    support=st.integers(1, 40),
    underlying=st.sampled_from([(2,), (3,), (2, 2), (2, 3)]),
    partial=st.booleans(),
    block=st.sampled_from([1, 50, model.EVALUATE_BLOCK]),
)
@settings(max_examples=60, deadline=None)
def test_forward_evaluate_cells_equal_the_per_menu_path(
    seed, support, underlying, partial, block
):
    # Menus share winner calls and one bincount, in blocks of at least
    # `block` entries: every cell must keep its float exactly.
    rng = np.random.default_rng(seed)
    non_atomic = tuple(f"a{k}" for k in range(len(underlying)))
    space = AggregateSpace(("x", "y"), non_atomic)
    corr = AggregationCorrespondence.identity_atomic(
        space,
        {a: tuple(f"{a}-{i}" for i in range(size)) for a, size in zip(non_atomic, underlying)},
    )
    dom = ChoiceDomain.full(space)
    if partial:
        keep = [m for m in dom.menus if rng.random() < 0.5] or [dom.menus[0]]
        dom = ChoiceDomain(space, tuple(keep))
    mu = random_preferences(corr.ground, rng, support)
    lam = random_composition(corr, dom, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "EVALUATE_BLOCK", block)
        ours = forward_evaluate(mu, corr, lam, dom)
    assert ours.table == _per_menu_forward_evaluate(mu, corr, lam, dom).table


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
    from aggchoice.model import nonempty_subsets

    ids = tuple(f"i{k}" for k in range(9))
    space = AggregateSpace(ids, ())
    rho = StochasticChoice(space, {frozenset(ids): {a: 1 / 9 for a in ids}})
    with pytest.raises(DomainTooLarge):
        check_aru_rational(rho, space)
    # On the full domain, i0 winning the grand menu outright breaks
    # regularity, which the Block-Marschak sums would decide alone.
    rows = {m: {a: 1 / len(m) for a in m} for m in nonempty_subsets(ids)}
    rows[frozenset(ids)] = {a: float(a == "i0") for a in ids}
    with pytest.raises(DomainTooLarge):
        check_aru_rational(StochasticChoice(space, rows), space)


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
