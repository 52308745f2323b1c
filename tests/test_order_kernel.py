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

from aggchoice import (
    AggregateSpace,
    ChoiceDomain,
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
    grid_oracle_ru_n,
    ru_vertex_lmo,
    vertex_choice,
)
from aggchoice.model import all_orders, nth_order, order_events, order_winners

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
        ground = ("d", "b", "f", "a", "e", "c")[:n]
        menus = [
            frozenset(c)
            for r in range(1, n + 1)
            for c in itertools.combinations(ground, r)
        ]
        winners = order_winners(ground, menus)
        assert winners.shape == (math.factorial(n), len(menus))
        assert winners.dtype == np.int8
        for i, order in enumerate(all_orders(ground)):
            assert [ground[k] for k in winners[i]] == [order.best(m) for m in menus]

    def test_nth_order(self):
        ground = ("c", "a", "d", "b")
        assert [nth_order(ground, i) for i in range(24)] == all_orders(ground)

    def test_events_match_best(self):
        cells = DOMAIN4.cells()
        orders = all_orders(SPACE4.members)
        events = order_events(SPACE4.members, cells)
        assert events.flags.c_contiguous
        assert events.tolist() == [[o.best(m) == a for o in orders] for m, a in cells]

    def test_cap_and_foreign_ids(self):
        with pytest.raises(DomainTooLarge):
            order_winners(tuple("abcdefghi"), [menu("a")])
        with pytest.raises(GroundMismatch):
            order_winners(("a", "b"), [menu("a", "z")])


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
            (("x", "y", "a0", "a1"), 0.4353546910755147),
            (("a1", "a0", "y", "x"), 0.014016018306634159),
            (("y", "a1", "a0", "x"), 0.108838672768878),
            (("a0", "a1", "x", "y"), 0.0537757437070936),
            (("a1", "a0", "x", "y"), 0.26086956521739335),
            (("a1", "y", "x", "a0"), 0.013443935926771807),
            (("y", "x", "a1", "a0"), 0.04033180778032053),
            (("a1", "y", "a0", "x"), 0.06250000000000207),
            (("y", "x", "a0", "a1"), 0.010869565217391852),
        ]
        assert result.iterations == 9
        assert result.objective_trace == (
            4.625,
            0.5227272727272727,
            0.3674863387978142,
            0.3140558321479374,
            0.22487173507462682,
            0.20791217430368378,
            0.2043409806567702,
            0.20086875843454793,
            0.2007294050343249,
        )
        assert result.squared_distance == 0.2007294050343249
        assert result.duality_gap == 9.2148511043888e-15

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
        result = grid_oracle_ru_n(build_nesting_counterexample(space), 3, resolution=0.02)
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
