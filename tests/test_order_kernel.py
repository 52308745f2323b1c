"""The winner-table kernel and golden outputs of every path built on it.

The kernel is checked against `LinearOrder.best`, the independent
reference.  The golden literals were recorded from the per-order
reference loops (`LinearOrder.best` called once per order and menu).
Each path must reproduce them bit for bit: certificates and Frank-Wolfe
mixtures come out of deterministic tie-breaks, so a changed float or
support means a changed pivot or iterate sequence, not a rounding wobble.
"""

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
    DomainTooLarge,
    GroundMismatch,
    LinearOrder,
    MenuCollectionFamily,
    PreferenceDistribution,
    StochasticChoice,
    approx_caratheodory,
    aru_distance,
    aru_evaluate,
    build_nesting_counterexample,
    check_aru_rational,
    collapse_to_aru,
    forward_evaluate,
    grid_oracle_ru_n,
    ru_vertex_lmo,
    rum_prob,
    unconditional_joint,
    vertex_choice,
)
from aggchoice import model
from aggchoice.model import (
    EMPTY_TUPLE,
    _permutation_table,
    _winners,
    all_orders,
    order_events,
)
from conftest import random_composition, random_preferences

SPACE5 = AggregateSpace(("x", "y", "z"), ("a0", "a1"))
SPACE4 = AggregateSpace(("x", "y"), ("a0", "a1"))
DOMAIN4 = ChoiceDomain.full(SPACE4)


def menu(*ids):
    return frozenset(ids)


def encode_family(family):
    return {
        a: sorted(sorted(m) for m in menus)
        for a, menus in family.per_aggregate.items()
    }


def aru_rational_data():
    """A four-order mixture on five ids, full domain.

    Dyadic weights keep every row sum exact, so the table does not depend
    on the iteration order of the frozenset menus (that is, on the hash
    seed); the vertex mixture below does the same.
    """
    prefs = PreferenceDistribution(
        {
            LinearOrder(("x", "y", "z", "a0", "a1")): 0.125,
            LinearOrder(("a0", "z", "x", "a1", "y")): 0.25,
            LinearOrder(("y", "a1", "x", "z", "a0")): 0.125,
            LinearOrder(("z", "x", "a1", "y", "a0")): 0.5,
        }
    )
    return aru_evaluate(prefs, ChoiceDomain.full(SPACE5))


def vertex_mixture_data():
    """RU-rational but not ARU-rational: three menu-effect vertices on four ids."""
    parts = [
        (
            LinearOrder(("x", "y", "a0", "a1")),
            MenuCollectionFamily.single("a0", [menu("x", "a0"), menu("x", "y", "a0")]),
            0.5,
        ),
        (
            LinearOrder(("y", "a1", "x", "a0")),
            MenuCollectionFamily.single("a1", [menu("y", "a1"), menu("x", "y", "a1")]),
            0.25,
        ),
        (LinearOrder(("a1", "x", "a0", "y")), MenuCollectionFamily.empty(), 0.25),
    ]
    tables = [(vertex_choice(o, f, DOMAIN4), w) for o, f, w in parts]
    return StochasticChoice(
        SPACE4,
        {
            m: {a: sum(w * t.prob(m, a) for t, w in tables) for a in m}
            for m in DOMAIN4.menus
        },
    )


def lmo_gradients():
    cells = DOMAIN4.cells()
    return [
        ("zero", {}),
        # Every option of every menu ties: following must win everywhere.
        ("flat", {cell: -1.0 for cell in cells}),
        # x and a1 tie; menus with a1 but not x deviate strictly.
        (
            "x-a1",
            {(m, a): (-1.0 if a in ("x", "a1") else 0.0) for m, a in cells},
        ),
        (
            "mixed",
            {
                (m, a): float((3 * len(m) + 5 * SPACE4.index(a)) % 7 - 3)
                for m, a in cells
            },
        ),
    ]


class TestKernel:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_winners_match_best(self, n):
        # Every cell of every menu, on a ground whose ids are not sorted.
        ground = ("d", "b", "f", "a", "e", "c")[:n]
        cells = [
            (frozenset(c), a)
            for r in range(1, n + 1)
            for c in itertools.combinations(ground, r)
            for a in c
        ]
        events = order_events(ground, cells)
        assert events.shape == (len(cells), math.factorial(n))
        assert events.dtype == np.bool_
        for i, order in enumerate(all_orders(ground)):
            assert events[:, i].tolist() == [order.best(m) == a for m, a in cells]

    def test_events_match_best(self):
        cells = DOMAIN4.cells()
        orders = all_orders(SPACE4.members)
        events = order_events(SPACE4.members, cells)
        assert events.flags.c_contiguous
        assert events.tolist() == [[o.best(m) == a for o in orders] for m, a in cells]

    def test_cap_and_foreign_ids(self):
        with pytest.raises(DomainTooLarge):
            order_events(tuple("abcdefghi"), [(menu("a"), "a")])
        with pytest.raises(GroundMismatch):
            order_events(("a", "b"), [(menu("a", "z"), "a")])
        with pytest.raises(GroundMismatch):
            order_events(("a", "b"), [(menu("a", "b"), "z")])


def reference_winners(ranks, menus):
    """The per-id loop `_winners` replaced: per menu, one compare and one
    minimum per id."""
    table = np.empty((len(menus), ranks.shape[1]), dtype=ranks.dtype)
    for j, menu in enumerate(menus):
        first, *rest = sorted(menu)
        winner = table[j]
        winner.fill(first)
        best = ranks[first]
        for x in rest:
            rank = ranks[x]
            winner[rank < best] = x
            best = np.minimum(best, rank)
    return table


class TestWinnerKernel:
    """The kernel per position gives the table of the per-id loop."""

    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        block=st.sampled_from([1, 5, 1000, model.WINNER_BLOCK]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_id_loop(self, n, seed, block):
        rng = np.random.default_rng(seed)
        ranks = _permutation_table(n)
        if rng.random() < 0.5:  # a support: some orders, repeated, in any order
            ranks = ranks[:, rng.integers(0, ranks.shape[1], size=rng.integers(1, 50))]
        menus = [
            rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
            for _ in range(rng.integers(0, 12))
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "WINNER_BLOCK", block)
            table = _winners(ranks, menus)
        assert table.dtype == ranks.dtype
        assert table.tobytes() == reference_winners(ranks, menus).tobytes()

    def test_a_call_across_blocks_at_eight_ids(self):
        # Every menu of 8 ids over all 40320 orders: 26 menus fill a block.
        ranks = _permutation_table(8)
        menus = [
            list(m) for r in range(1, 9) for m in itertools.combinations(range(8), r)
        ]
        assert len(menus) > model.WINNER_BLOCK // ranks.shape[1]
        assert np.array_equal(_winners(ranks, menus), reference_winners(ranks, menus))


class TestGolden:
    def test_aru_certificate(self):
        report = check_aru_rational(aru_rational_data(), SPACE5)
        assert report.passed
        assert [(o.ranking, w) for o, w in report.certificate.items()] == [
            (("x", "y", "z", "a0", "a1"), 0.125),
            (("y", "a1", "x", "z", "a0"), 0.125),
            (("z", "x", "a1", "y", "a0"), 0.5),
            (("a0", "z", "x", "a1", "y"), 0.25),
        ]

    def test_aru_distance(self):
        result = aru_distance(vertex_mixture_data(), SPACE4)
        assert [(o.ranking, w) for o, w in result.mixture.items()] == [
            (("x", "y", "a0", "a1"), 0.4353546910755149),
            (("a1", "a0", "y", "x"), 0.014016018306636355),
            (("y", "a1", "a0", "x"), 0.10883867276887865),
            (("a0", "a1", "x", "y"), 0.05377574370709382),
            (("a1", "a0", "x", "y"), 0.2608695652173912),
            (("a1", "y", "x", "a0"), 0.013443935926773516),
            (("y", "x", "a1", "a0"), 0.04033180778032045),
            (("a1", "y", "a0", "x"), 0.06249999999999988),
            (("y", "x", "a0", "a1"), 0.010869565217391255),
        ]
        assert result.iterations == 9
        assert result.objective_trace == (
            4.625,
            0.5227272727272727,
            0.3674863387978142,
            0.3140558321479374,
            0.22487173507462682,
            0.20791217430368372,
            0.20434098065677014,
            0.20086875843454793,
            0.20072940503432496,
        )
        assert result.squared_distance == 0.20072940503432496
        assert result.duality_gap == 5.551115123125783e-16
        assert result.lower_bound == 0.2007294050343244

    def test_caratheodory_vertices(self):
        result = approx_caratheodory(vertex_mixture_data(), 3, SPACE4)
        assert [(o.ranking, encode_family(f)) for o, f in result.vertices] == [
            (("x", "y", "a0", "a1"), {"a0": [["a0", "x", "y"]]}),
            (
                ("x", "y", "a0", "a1"),
                {
                    "a1": [
                        ["a0", "a1"],
                        ["a0", "a1", "x"],
                        ["a0", "a1", "x", "y"],
                        ["a1", "x"],
                        ["a1", "x", "y"],
                        ["a1", "y"],
                    ],
                    "a0": [["a0", "x"]],
                },
            ),
            (
                ("y", "x", "a0", "a1"),
                {"a1": [["a0", "a1", "y"], ["a1", "x", "y"]], "a0": [["a0", "y"]]},
            ),
        ]
        assert result.achieved == 0.03055555555555555
        assert result.fw_achieved == 0.08240740740740742

    def test_lmo_ties(self):
        expected = {
            "zero": (("x", "y", "a0", "a1"), {}),
            "flat": (("x", "y", "a0", "a1"), {}),
            "x-a1": (
                ("x", "y", "a0", "a1"),
                {"a1": [["a0", "a1"], ["a0", "a1", "y"], ["a1", "y"]]},
            ),
            "mixed": (
                ("y", "x", "a0", "a1"),
                {
                    "a0": [["a0", "a1", "x", "y"], ["a0", "x"], ["a0", "y"]],
                    "a1": [["a0", "a1"], ["a1", "x"], ["a1", "y"]],
                },
            ),
        }
        for name, gradient in lmo_gradients():
            order, family = ru_vertex_lmo(gradient, SPACE4, DOMAIN4)
            assert (order.ranking, encode_family(family)) == expected[name], name

    def test_grid_oracle_witness(self):
        space = AggregateSpace(("y1", "y2"), ("a0",))
        result = grid_oracle_ru_n(build_nesting_counterexample(space), 3)
        assert result.found
        assert result.candidates_checked == 7
        witness = result.witness
        assert [(o.ranking, w) for o, w in witness.prefs.items()] == [
            (("a0#0", "y2", "a0#1", "y1", "a0#2"), 0.5),
            (("a0#1", "y1", "y2", "a0#0", "a0#2"), 0.5),
        ]
        assert {
            tuple(sorted(m)): [(t.parts, w) for t, w in dist.items()]
            for m, dist in witness.composition.per_menu.items()
        } == {
            ("a0",): [((("a0", menu("a0#0", "a0#1", "a0#2")),), 1.0)],
            ("a0", "y1", "y2"): [((("a0", menu("a0#0")),), 1.0)],
            ("a0", "y1"): [((("a0", menu("a0#1")),), 1.0)],
            ("a0", "y2"): [((("a0", menu("a0#2")),), 1.0)],
        }
        assert witness.residual == 0.0

    def test_grid_oracle_solves_each_node_once(self, monkeypatch):
        # The leaf's support comes from its own solve, not a second one.
        import aggchoice.linprog as linprog

        solve_mixture = linprog.solve_mixture
        calls = []

        def counting(*args):
            calls.append(args)
            return solve_mixture(*args)

        monkeypatch.setattr(linprog, "solve_mixture", counting)
        space = AggregateSpace(("y1", "y2"), ("a0",))
        assert grid_oracle_ru_n(build_nesting_counterexample(space), 3).found
        assert len(calls) == 4


# ---------------------------------------------------------------------------
# Evaluation through the kernel against per-order reference loops
# ---------------------------------------------------------------------------


def reference_forward(prefs, correspondence, composition, domain):
    """`forward_evaluate` as one `best` call per (menu, tuple, order)."""
    space = correspondence.space
    owner = correspondence.owner_map()
    table = {}
    for m in domain.menus:
        atomic_part = [correspondence.sole(a) for a in m if a in space.atomic_set]
        tuples = {EMPTY_TUPLE: 1.0}
        if m & space.non_atomic_set:
            tuples = composition.for_menu(m)
        row = {a: 0.0 for a in m}
        for t, w in tuples.items():
            realized = atomic_part + [x for _, part in t.parts for x in part]
            for order, v in prefs.items():
                row[owner[order.best(realized)]] += w * v
        table[m] = row
    return StochasticChoice(space, table)


def reference_aru(prefs, domain):
    """`aru_evaluate` as one `best` call per (menu, order)."""
    table = {}
    for m in domain.menus:
        row = {a: 0.0 for a in m}
        for order, w in prefs.items():
            row[order.best(m)] += w
        table[m] = row
    return StochasticChoice(domain.space, table)


def reference_collapse(prefs, correspondence, joint):
    """`collapse_to_aru`'s orders, from each order's `rank` of every id."""
    space = correspondence.space
    weights = {}
    for profile, pw in joint.items():
        realized = {a: {correspondence.sole(a)} for a in space.atomic}
        realized.update((a, profile.part(a)) for a in space.non_atomic)
        for order, ow in prefs.items():
            best_rank = {a: min(map(order.rank, realized[a])) for a in space.members}
            ranking = sorted(space.members, key=best_rank.__getitem__)
            induced = LinearOrder(tuple(ranking))
            weights[induced] = weights.get(induced, 0.0) + pw * ow
    return PreferenceDistribution(weights)


def table_hex(rho):
    return [(sorted(m), a, p.hex()) for m, a, p in rho.cells()]


def prefs_hex(prefs):
    return [(o.ranking, w.hex()) for o, w in prefs.items()]


def random_world(seed):
    """A space of at most 6 ground ids, its correspondence, and a domain.

    The domain keeps every singleton menu and about 70% of the others.
    """
    rng = np.random.default_rng(seed)
    n_atomic = int(rng.integers(0, 4))
    sizes = [2 + int(rng.integers(0, 2)) for _ in range(int(rng.integers(1, 3)))]
    while n_atomic + sum(sizes) > 6:
        sizes.pop()
    non_atomic = tuple(f"a{k}" for k in range(len(sizes)))
    space = AggregateSpace(tuple(f"y{k}" for k in range(n_atomic)), non_atomic)
    images = {a: [f"{a}.{j}" for j in range(s)] for a, s in zip(non_atomic, sizes)}
    correspondence = AggregationCorrespondence.identity_atomic(space, images)
    domain = ChoiceDomain.full(space)
    keep = [m for m in domain.menus if len(m) == 1 or rng.random() < 0.7]
    return rng, space, correspondence, ChoiceDomain(space, tuple(keep))


class TestEvaluationKernel:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_winners_match_best_on_a_support(self, seed):
        rng, space, correspondence, domain = random_world(seed)
        ground = correspondence.ground
        prefs = random_preferences(ground, rng, support=int(rng.integers(1, 9)))
        menus = [
            [k for k in range(len(ground)) if rng.random() < 0.5] or [0]
            for _ in range(5)
        ]
        winners = _winners(prefs.ranks(ground), menus)
        for j, ids in enumerate(menus):
            for i, order in enumerate(prefs.support):
                assert ground[winners[j, i]] == order.best([ground[k] for k in ids])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_evaluations_match_per_order_loops(self, seed):
        rng, space, correspondence, domain = random_world(seed)
        ground = correspondence.ground
        prefs = random_preferences(ground, rng, support=int(rng.integers(1, 9)))
        composition = random_composition(correspondence, domain, rng)
        assert table_hex(
            forward_evaluate(prefs, correspondence, composition, domain)
        ) == table_hex(reference_forward(prefs, correspondence, composition, domain))

        agg = random_preferences(space.members, rng, support=int(rng.integers(1, 9)))
        assert table_hex(aru_evaluate(agg, domain)) == table_hex(
            reference_aru(agg, domain)
        )
        for m in domain.menus:
            for a in m:
                expected = math.fsum(w for o, w in agg.items() if o.best(m) == a)
                assert rum_prob(agg, m, a).hex() == expected.hex()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_collapse_matches_the_rank_loop(self, seed):
        rng, space, correspondence, domain = random_world(seed)
        prefs = random_preferences(
            correspondence.ground, rng, support=int(rng.integers(1, 9))
        )
        grand = frozenset(space.members)
        joint = random_composition(
            correspondence, ChoiceDomain(space, (grand,)), rng
        ).for_menu(grand)
        composition = CompositionDistribution.constant(domain.menus, space, joint)
        joint = unconditional_joint(composition, correspondence, domain)
        assert prefs_hex(
            collapse_to_aru(prefs, correspondence, composition, domain)
        ) == prefs_hex(reference_collapse(prefs, correspondence, joint))
