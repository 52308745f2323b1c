"""Core domain types and forward-evaluation semantics.

The observable dataset is a stochastic choice function over *aggregates*:
analyst-level alternatives that may stand for several underlying goods.
An aggregation correspondence maps each aggregate to its possible
underlying alternatives, and a composition distribution says, menu by
menu, which nonempty subset each non-atomic aggregate actually
represents.  Forward evaluation turns a preference distribution over the
underlying alternatives plus a composition distribution into the reduced
choice frequencies the analyst would observe.

Everything here is an immutable value object; operations are pure
functions and safe to share across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    AggregateNotInMenu,
    DomainTooLarge,
    GroundMismatch,
    InvalidProbability,
    InvalidTuple,
    ItemNotInMenu,
    MissingLambdaForMenu,
    VerificationBug,
)
from .tolerances import PROB_TOL

Menu = frozenset[str]

#: Hard cap on any operation that enumerates all linear orders (8! = 40320).
MAX_ENUMERATION_GROUND = 8

#: `forward_evaluate` takes the winners of whole menus together until
#: their composition tuples times the support's orders reach this many
#: entries, so a small support costs one winner call for the whole domain
#: and a large one keeps its temporaries to a few megabytes.
EVALUATE_BLOCK = 1 << 16

#: `_winners` works on this many (menu, order) entries at a time, so its
#: temporaries stay near a megabyte at the 8! = 40320 orders of
#: `order_events`.
WINNER_BLOCK = 1 << 20


def nonempty_subsets(ids: Sequence[str]) -> list[frozenset[str]]:
    """Every nonempty subset of `ids`, by size, then in combinations order."""
    return [
        frozenset(c)
        for r in range(1, len(ids) + 1)
        for c in itertools.combinations(ids, r)
    ]


def _invalid(what: str, menu: Menu | None, problem: str) -> InvalidProbability:
    label = what if menu is None else f"{what} {sorted(menu)}"
    return InvalidProbability(f"{label}: {problem}")


def _validate_simplex(weights: Mapping, what: str, menu: Menu | None = None) -> dict:
    """Check finiteness, nonnegativity and total mass, renormalizing tiny drift.

    An error names `what`, followed by the sorted `menu` when one is
    given; the label is built only then.
    """
    cleaned = {}
    for key, w in weights.items():
        if not math.isfinite(w):
            raise _invalid(what, menu, f"non-finite weight {w!r} for {key!r}")
        if w < -PROB_TOL:
            raise _invalid(what, menu, f"negative weight {w!r} for {key!r}")
        cleaned[key] = max(w, 0.0)
    # fsum rounds once, so the total does not depend on iteration order.
    total = math.fsum(cleaned.values())
    if abs(total - 1.0) > PROB_TOL:
        raise _invalid(what, menu, f"total mass {total!r} differs from 1")
    if total != 1.0:
        cleaned = {k: w / total for k, w in cleaned.items()}
    return cleaned


def _validate_rows(rows: np.ndarray, cells: Sequence[tuple[Menu, str]]) -> np.ndarray:
    """`StochasticChoice`'s check of many tables at once, as arrays.

    Row i of `rows` is a table's values at `cells`, whose (menu,
    aggregate) pairs hold each menu's cells side by side.  Returns the
    rows with the floats `_validate_simplex` gives each menu: max(w, 0.0)
    as a select, one `math.fsum` per menu, and w / total, which leaves w
    as it is where the total is 1.0.  The first failing menu, in row
    order, then in cell order, raises through `_validate_simplex` with its
    aggregates in the menu's iteration order, so with the error a table
    of it gets.
    """
    starts = [c for c in range(len(cells)) if c == 0 or cells[c][0] != cells[c - 1][0]]
    spans = list(zip(starts, starts[1:] + [len(cells)]))
    cleaned = np.where(rows < 0.0, 0.0, rows)
    # An entry above 2 puts its menu's mass off whatever the other
    # entries; left out of the sums, like the other failing entries, it
    # keeps fsum from overflowing.
    bad = ~np.isfinite(rows) | (rows < -PROB_TOL) | (rows > 2.0)
    summed = np.where(bad, 0.0, cleaned).tolist()
    totals = np.array(
        [[math.fsum(row[lo:hi]) for lo, hi in spans] for row in summed]
    ).reshape(len(rows), len(spans))
    fails = np.logical_or.reduceat(bad, starts, axis=1) | (
        np.abs(totals - 1.0) > PROB_TOL
    )
    if fails.any():
        i, k = np.argwhere(fails)[0].tolist()
        lo, hi = spans[k]
        menu = cells[lo][0]
        values = dict(zip([a for _, a in cells[lo:hi]], rows[i, lo:hi].tolist()))
        _validate_simplex({a: values[a] for a in menu}, "menu", menu)
        raise VerificationBug(f"the row check rejects menu {sorted(menu)} of row {i}")
    sizes = np.diff(starts + [len(cells)])
    return cleaned / np.repeat(totals, sizes, axis=1)


@dataclass(frozen=True)
class AggregateSpace:
    """The aggregate alternatives, split into atomic and non-atomic ones.

    Construction order is fixed and used for every deterministic
    tie-break in the library.
    """

    atomic: tuple[str, ...]
    non_atomic: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "atomic", tuple(self.atomic))
        object.__setattr__(self, "non_atomic", tuple(self.non_atomic))
        ids = self.atomic + self.non_atomic
        if not ids:
            raise ValueError("aggregate space must be nonempty")
        if len(set(ids)) != len(ids):
            raise ValueError("aggregate ids must be unique across both kinds")
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(ids)})

    @property
    def members(self) -> tuple[str, ...]:
        return self.atomic + self.non_atomic

    @property
    def atomic_set(self) -> frozenset[str]:
        return frozenset(self.atomic)

    @property
    def non_atomic_set(self) -> frozenset[str]:
        return frozenset(self.non_atomic)

    def index(self, aggregate: str) -> int:
        return self._index[aggregate]

    def sort(self, items: Iterable[str]) -> tuple[str, ...]:
        """Order aggregate ids by the fixed construction order."""
        return tuple(sorted(items, key=self._index.__getitem__))

    def menu_key(self, menu: Iterable[str]) -> tuple[int, ...]:
        """Canonical sort key for menus (lexicographic over the fixed order)."""
        return tuple(sorted(self._index[a] for a in menu))

    def sort_menus(self, menus: Iterable[Menu]) -> tuple[Menu, ...]:
        return tuple(sorted(menus, key=self.menu_key))


@dataclass(frozen=True)
class AggregationCorrespondence:
    """Disjoint assignment of underlying alternatives to each aggregate.

    Atomic aggregates map to singletons, non-atomic ones to sets of at
    least two underlying alternatives.  The per-aggregate order is fixed
    at construction.
    """

    space: AggregateSpace
    mapping: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        cleaned = {a: tuple(xs) for a, xs in self.mapping.items()}
        object.__setattr__(self, "mapping", cleaned)
        if set(cleaned) != set(self.space.members):
            raise ValueError("correspondence must cover exactly the aggregate space")
        seen: set[str] = set()
        for a, xs in cleaned.items():
            if not xs:
                raise ValueError(f"X({a}) must be nonempty")
            if len(set(xs)) != len(xs):
                raise ValueError(f"X({a}) has duplicate ids")
            if seen & set(xs):
                raise ValueError(f"X({a}) overlaps another aggregate's image")
            seen |= set(xs)
            if a in self.space.atomic_set and len(xs) != 1:
                raise ValueError(f"atomic aggregate {a} must map to a singleton")
            if a in self.space.non_atomic_set and len(xs) < 2:
                raise ValueError(f"non-atomic aggregate {a} needs at least 2 elements")

    def underlying(self, aggregate: str) -> tuple[str, ...]:
        return self.mapping[aggregate]

    def sole(self, aggregate: str) -> str:
        """The unique underlying alternative of an atomic aggregate."""
        (x,) = self.mapping[aggregate]
        return x

    @property
    def ground(self) -> tuple[str, ...]:
        """All underlying alternatives, in space-then-image order."""
        out: list[str] = []
        for a in self.space.members:
            out.extend(self.mapping[a])
        return tuple(out)

    def owner_map(self) -> dict[str, str]:
        return {x: a for a in self.space.members for x in self.mapping[a]}

    @staticmethod
    def identity_atomic(
        space: AggregateSpace, non_atomic: Mapping[str, Iterable[str]]
    ) -> "AggregationCorrespondence":
        """Atomic aggregates stand for themselves; non-atomic images given."""
        mapping: dict[str, tuple[str, ...]] = {a: (a,) for a in space.atomic}
        for a in space.non_atomic:
            mapping[a] = tuple(non_atomic[a])
        return AggregationCorrespondence(space, mapping)


@dataclass(frozen=True)
class ChoiceDomain:
    """The collection of menus on which data is observed."""

    space: AggregateSpace
    menus: tuple[Menu, ...]

    def __post_init__(self):
        menus = tuple(frozenset(m) for m in self.menus)
        universe = set(self.space.members)
        for m in menus:
            if not m:
                raise ValueError("menus must be nonempty")
            if not m <= universe:
                raise ValueError(f"menu {sorted(m)} outside the aggregate space")
        if len(set(menus)) != len(menus):
            raise ValueError("duplicate menus in domain")
        object.__setattr__(self, "menus", self.space.sort_menus(menus))

    def __iter__(self):
        return iter(self.menus)

    def __contains__(self, menu) -> bool:
        return frozenset(menu) in set(self.menus)

    def cells(self) -> list[tuple[Menu, str]]:
        """All (menu, aggregate) coordinates in canonical order."""
        return [(m, a) for m in self.menus for a in self.space.sort(m)]

    @staticmethod
    def full(space: AggregateSpace) -> "ChoiceDomain":
        """All nonempty subsets of the aggregate space."""
        return ChoiceDomain(space, tuple(nonempty_subsets(space.members)))

    @staticmethod
    def all_containing(space: AggregateSpace, aggregate: str) -> "ChoiceDomain":
        """All menus that contain a given aggregate (default-option domain)."""
        rest = [a for a in space.members if a != aggregate]
        menus = [frozenset({aggregate})]
        menus += [s | {aggregate} for s in nonempty_subsets(rest)]
        return ChoiceDomain(space, tuple(menus))


@dataclass(frozen=True)
class StochasticChoice:
    """Menu-indexed choice frequencies over aggregates (the dataset)."""

    space: AggregateSpace
    table: Mapping[Menu, Mapping[str, float]]

    def __post_init__(self):
        cleaned: dict[Menu, dict[str, float]] = {}
        for menu, row in self.table.items():
            menu = frozenset(menu)
            if not menu <= set(self.space.members):
                raise ValueError(f"menu {sorted(menu)} outside the aggregate space")
            if not set(row) <= menu:
                raise InvalidProbability(
                    f"menu {sorted(menu)}: probability assigned outside the menu"
                )
            validated = _validate_simplex(row, "menu", menu)
            cleaned[menu] = {
                a: validated.get(a, 0.0) for a in self.space.sort(menu)
            }
        object.__setattr__(self, "table", cleaned)

    @property
    def menus(self) -> tuple[Menu, ...]:
        return self.space.sort_menus(self.table.keys())

    def prob(self, menu: Iterable[str], aggregate: str) -> float:
        menu = frozenset(menu)
        if aggregate not in menu:
            return 0.0
        return self.table[menu].get(aggregate, 0.0)

    def row(self, menu: Iterable[str]) -> dict[str, float]:
        return dict(self.table[frozenset(menu)])

    def domain(self) -> ChoiceDomain:
        return ChoiceDomain(self.space, self.menus)

    def cells(self) -> list[tuple[Menu, str, float]]:
        return [
            (m, a, self.table[m][a]) for m in self.menus for a in self.space.sort(m)
        ]

    def max_cell_difference(self, other: "StochasticChoice") -> float:
        """Largest per-cell gap against another table on the shared menus."""
        if set(self.table) != set(other.table):
            raise ValueError("tables are defined on different menus")
        return _largest_gap(self.table, other.table)


Rows = Mapping[Menu, Mapping]


def _largest_gap(replayed: Rows, data: Rows) -> float:
    """Largest cell gap over the menus of `replayed`; a missing cell is 0."""
    worst = 0.0
    for menu, row in replayed.items():
        expected = data[menu]
        for key in row.keys() | expected.keys():
            worst = max(worst, abs(row.get(key, 0.0) - expected.get(key, 0.0)))
    return worst


def verify_replay(replayed: Rows, data: Rows, bound: float, what: str) -> float:
    """Check a result replayed against the data it must reproduce.

    Both arguments map menus to rows: a `StochasticChoice.table`, or
    per-menu composition distributions.  Returns the largest cell gap
    over the menus of `replayed`, and raises `VerificationBug` when it
    exceeds `bound`.
    """
    gap = _largest_gap(replayed, data)
    if not gap <= bound:
        raise VerificationBug(
            f"{what} misses the data by {gap!r} (tolerance {bound!r})"
        )
    return gap


@dataclass(frozen=True)
class LinearOrder:
    """A strict ranking of a ground set, best to worst."""

    ranking: tuple[str, ...]

    def __post_init__(self):
        ranking = tuple(self.ranking)
        if len(set(ranking)) != len(ranking) or not ranking:
            raise ValueError("ranking must be a nonempty sequence of distinct ids")
        object.__setattr__(self, "ranking", ranking)
        object.__setattr__(self, "_rank", {x: i for i, x in enumerate(ranking)})

    @property
    def ground(self) -> frozenset[str]:
        return frozenset(self.ranking)

    def rank(self, item: str) -> int:
        return self._rank[item]

    def best(self, items: Iterable[str]) -> str:
        """Maximal element of a nonempty subset of the ground set."""
        return min(items, key=self._rank.__getitem__)

    def restrict(self, items: Iterable[str]) -> "LinearOrder":
        keep = set(items)
        return LinearOrder(tuple(x for x in self.ranking if x in keep))


def _check_enumerable(ground: Sequence[str]) -> None:
    if len(ground) > MAX_ENUMERATION_GROUND:
        raise DomainTooLarge(
            f"cannot enumerate orders on {len(ground)} ids "
            f"(cap is {MAX_ENUMERATION_GROUND})"
        )


def all_orders(ground: tuple[str, ...]) -> list[LinearOrder]:
    """Every linear order on the ground set, in deterministic order.

    Enforces the documented enumeration cap (8! orders).
    """
    _check_enumerable(ground)
    return [LinearOrder(p) for p in itertools.permutations(ground)]


@functools.cache
def _permutation_table(n: int) -> np.ndarray:
    """The rank array of every permutation of range(n), as read-only int8.

    Order i is the i-th tuple of ``itertools.permutations(range(n))``, so
    it is order i of `all_orders`.  ``ranks[x, i]`` is the position of x
    in that order; each id's ranks across orders are contiguous.  The
    array takes n * n! bytes (323 KB at n = 8).
    """
    count = math.factorial(n)
    perms = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n))),
        dtype=np.int8,
        count=count * n,
    ).reshape(count, n)
    ranks = np.empty((n, count), dtype=np.int8)
    ranks[perms, np.arange(count)[:, None]] = np.arange(n, dtype=np.int8)
    ranks.flags.writeable = False
    return ranks


def _winners(ranks: np.ndarray, menus: Sequence[Iterable[int]]) -> np.ndarray:
    """Best id of each menu under each order of a rank array.

    ``ranks[x, i]`` is id x's position in order i.  Entry (j, i) is order
    i's best id in the nonempty ``menus[j]``, in the dtype of `ranks`.
    Each (position, id) pair is packed into one unsigned key, position
    first, so a menu's best id is its least key.  Each menu is padded to
    the longest with its first id, whose key leaves the least as it is:
    each place in the menus then takes one key gather and one minimum
    across all menus, WINNER_BLOCK entries at a time.
    """
    menus = [list(menu) for menu in menus]
    width = max(map(len, menus), default=0)
    ids = np.array(
        [menu + menu[:1] * (width - len(menu)) for menu in menus], dtype=np.intp
    ).reshape(len(menus), width)
    size, count = ranks.shape
    table = np.empty((len(menus), count), dtype=ranks.dtype)
    if not table.size:
        return table
    shift = (size - 1).bit_length()
    dtype = np.min_scalar_type((int(ranks.max()) << shift) | (size - 1))
    keys = ranks.astype(dtype) << dtype.type(shift)
    keys |= np.arange(size, dtype=dtype)[:, None]
    step = max(1, WINNER_BLOCK // count)
    for lo in range(0, len(menus), step):
        block = ids[lo : lo + step]
        least = keys[block[:, 0]]
        for k in range(1, width):
            np.minimum(least, keys[block[:, k]], out=least)
        least &= dtype.type((1 << shift) - 1)
        table[lo : lo + step] = least
    return table


def order_events(
    ground: Sequence[str], cells: Sequence[tuple[Iterable[str], str]]
) -> np.ndarray:
    """Which order picks which cell: the vertices of the ARU polytope.

    Entry (c, i) is True when ``all_orders(ground)[i]`` picks aggregate a
    from menu m, where ``cells[c] = (m, a)``.  Returns a C-contiguous bool
    array of shape (len(cells), n!).  Enforces the enumeration cap, and
    raises `GroundMismatch` on an id outside the ground set.
    """
    _check_enumerable(ground)
    menus = list(dict.fromkeys(frozenset(m) for m, _ in cells))
    column = {m: j for j, m in enumerate(menus)}
    position = {x: i for i, x in enumerate(ground)}
    try:
        ids = [[position[x] for x in menu] for menu in menus]
        picked = np.array([position[a] for _, a in cells], dtype=np.int8)
    except KeyError as err:
        raise GroundMismatch(f"id {err.args[0]!r} is not in the ground set") from None
    by_menu = _winners(_permutation_table(len(ground)), ids)
    rows = [column[frozenset(m)] for m, _ in cells]
    return by_menu[rows] == picked[:, None]


@dataclass(frozen=True)
class PreferenceDistribution:
    """Sparse probability distribution over linear orders on one ground set."""

    weights: Mapping[LinearOrder, float]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("preference distribution needs at least one order")
        grounds = {o.ground for o in self.weights}
        if len(grounds) != 1:
            raise GroundMismatch("orders in one distribution must share a ground set")
        cleaned = _validate_simplex(self.weights, "preference distribution")
        object.__setattr__(self, "weights", cleaned)

    @property
    def ground(self) -> frozenset[str]:
        return next(iter(self.weights)).ground

    @property
    def support(self) -> tuple[LinearOrder, ...]:
        return tuple(self.weights.keys())

    def items(self):
        return self.weights.items()

    def ranks(self, ids: Sequence[str]) -> np.ndarray:
        """Entry (x, i) is the position of ``ids[x]`` in the i-th support order."""
        dtype = np.min_scalar_type(-len(self.ground))  # holds every position
        return np.array([[o.rank(x) for o in self.weights] for x in ids], dtype=dtype)

    @staticmethod
    def degenerate(order: LinearOrder) -> "PreferenceDistribution":
        return PreferenceDistribution({order: 1.0})

    @staticmethod
    def mixture(
        parts: Iterable[tuple["PreferenceDistribution", float]]
    ) -> "PreferenceDistribution":
        merged: dict[LinearOrder, float] = {}
        for dist, w in parts:
            for order, v in dist.items():
                merged[order] = merged.get(order, 0.0) + w * v
        return PreferenceDistribution(merged)


def rum_prob(
    prefs: PreferenceDistribution, menu: Iterable[str], item: str
) -> float:
    """Probability that `item` is the best element of `menu`.

    Classic random-utility evaluation: sums the weights of support orders
    whose maximum over the menu is `item`.
    """
    menu = frozenset(menu)
    if item not in menu:
        raise ItemNotInMenu(f"{item!r} is not in the menu")
    if not menu <= prefs.ground:
        raise GroundMismatch("menu contains ids outside the distribution's ground")
    ids = tuple(menu)
    (winners,) = _winners(prefs.ranks(ids), [range(len(ids))])
    weights = np.fromiter(prefs.weights.values(), float)
    return math.fsum(weights[winners == ids.index(item)])


@dataclass(frozen=True)
class CompositionTuple:
    """One realization of the non-atomic aggregates in a menu.

    `parts` maps each non-atomic aggregate in the menu to the nonempty
    subset of its underlying alternatives it stands for.  Atomic
    aggregates are implicitly their own singleton and never stored.
    Stored as a sorted tuple so the value is hashable and canonical.
    """

    parts: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        parts = tuple(sorted(((a, frozenset(s)) for a, s in self.parts)))
        for a, s in parts:
            if not s:
                raise InvalidTuple(f"empty part for aggregate {a}")
        if len({a for a, _ in parts}) != len(parts):
            raise InvalidTuple("duplicate aggregate in composition tuple")
        object.__setattr__(self, "parts", parts)

    @staticmethod
    def of(parts: Mapping[str, Iterable[str]]) -> "CompositionTuple":
        return CompositionTuple(tuple((a, frozenset(s)) for a, s in parts.items()))

    @property
    def aggregates(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.parts)

    def part(self, aggregate: str) -> frozenset[str]:
        for a, s in self.parts:
            if a == aggregate:
                return s
        raise KeyError(aggregate)


EMPTY_TUPLE = CompositionTuple(())


@dataclass(frozen=True)
class CompositionDistribution:
    """Per-menu distributions over composition tuples."""

    per_menu: Mapping[Menu, Mapping[CompositionTuple, float]]

    def __post_init__(self):
        cleaned: dict[Menu, dict[CompositionTuple, float]] = {}
        for menu, dist in self.per_menu.items():
            menu = frozenset(menu)
            validated = _validate_simplex(dist, "composition for", menu)
            cleaned[menu] = {t: w for t, w in validated.items() if w > 0.0}
        object.__setattr__(self, "per_menu", cleaned)

    def menus(self) -> tuple[Menu, ...]:
        return tuple(self.per_menu.keys())

    def for_menu(self, menu: Iterable[str]) -> dict[CompositionTuple, float]:
        return dict(self.per_menu[frozenset(menu)])

    @staticmethod
    def constant(
        menus: Iterable[Menu],
        space: AggregateSpace,
        dist: Mapping[CompositionTuple, float],
    ) -> "CompositionDistribution":
        """The same composition (marginalized per menu) on every menu."""
        per_menu = {}
        for menu in menus:
            present = frozenset(menu) & space.non_atomic_set
            if present:
                per_menu[frozenset(menu)] = _marginal(dist, space.sort(present))
        return CompositionDistribution(per_menu)


def _marginal(
    dist: Mapping[CompositionTuple, float], keep: tuple[str, ...]
) -> dict[CompositionTuple, float]:
    """`dist` restricted to `keep`, adding weights in `dist`'s order."""
    out: dict[CompositionTuple, float] = {}
    for t, w in dist.items():
        sub = CompositionTuple.of({a: t.part(a) for a in keep if a in t.aggregates})
        out[sub] = out.get(sub, 0.0) + w
    return out


def realizations(
    menu: Menu,
    correspondence: AggregationCorrespondence,
    composition: CompositionDistribution,
) -> Iterator[tuple[float, list[str]]]:
    """Each composition tuple of a menu as its weight and realized ids.

    The realized ids are the underlying ids of the menu's atomic
    aggregates in construction order, then each tuple part sorted.  A
    menu without non-atomic aggregates has the empty tuple only.  Raises
    `MissingLambdaForMenu` when a menu with non-atomic aggregates has no
    composition entry, and `InvalidTuple` when a tuple's aggregates are
    not the menu's non-atomic ones or a part leaves its aggregate's image.
    """
    space = correspondence.space
    present = menu & space.non_atomic_set
    if not present:
        tuples = {EMPTY_TUPLE: 1.0}
    elif menu in composition.per_menu:
        tuples = composition.per_menu[menu]
    else:
        raise MissingLambdaForMenu(f"no composition entry for menu {sorted(menu)}")
    atoms = [correspondence.sole(a) for a in space.sort(menu & space.atomic_set)]
    for t, w in tuples.items():
        if t.aggregates != present:
            raise InvalidTuple(
                f"tuple aggregates {sorted(t.aggregates)} do not match "
                f"menu {sorted(menu)}"
            )
        realized = list(atoms)
        for a, s in t.parts:
            if not s <= set(correspondence.underlying(a)):
                raise InvalidTuple(f"part for {a} is not a subset of X({a})")
            realized.extend(sorted(s))
        yield w, realized


def forward_evaluate(
    prefs: PreferenceDistribution,
    correspondence: AggregationCorrespondence,
    composition: CompositionDistribution,
    domain: ChoiceDomain,
) -> StochasticChoice:
    """Reduce a model over underlying alternatives to observable data.

    For each menu, mixes over composition tuples: a tuple fixes the
    realized set of underlying alternatives, the preference distribution
    picks its maximum, and the winning alternative's aggregate collects
    the probability.  The result is affine in both the preference and the
    composition distribution.
    """
    space = correspondence.space
    ground = correspondence.ground
    if not set(ground) <= set(prefs.ground):
        raise GroundMismatch(
            "preference distribution must rank every underlying alternative"
        )
    position = {x: i for i, x in enumerate(ground)}
    owner = correspondence.owner_map()
    labels = np.array([space.index(owner[x]) for x in ground])
    ranks = prefs.ranks(ground)
    weights = np.fromiter(prefs.weights.values(), float)
    members = len(space.members)
    table: dict[Menu, dict[str, float]] = {}
    block: list[Menu] = []
    realized_sets: list[list[int]] = []
    tuple_weights: list[float] = []
    offsets: list[int] = []  # the first label of each tuple's menu
    menus = domain.menus
    for i, menu in enumerate(menus):
        for w, ids in realizations(menu, correspondence, composition):
            realized_sets.append([position[x] for x in ids])
            tuple_weights.append(w)
            offsets.append(len(block) * members)
        block.append(menu)
        if i + 1 < len(menus) and len(realized_sets) * len(weights) < EVALUATE_BLOCK:
            continue
        # Each menu owns `members` labels, and bincount adds in input
        # order, tuple by tuple and then order by order: every cell gets
        # the float sequence of a loop over both.
        picks = labels[_winners(ranks, realized_sets)]
        picks += np.array(offsets, dtype=picks.dtype)[:, None]
        products = np.outer(tuple_weights, weights)
        mass = np.bincount(picks.ravel(), products.ravel(), len(block) * members)
        for m, row in zip(block, mass.reshape(len(block), members)):
            table[m] = {a: float(row[space.index(a)]) for a in m}
        block, realized_sets, tuple_weights, offsets = [], [], [], []
    return StochasticChoice(space, table)


def aru_evaluate(
    prefs_agg: PreferenceDistribution, domain: ChoiceDomain
) -> StochasticChoice:
    """Standard random-utility evaluation directly over aggregates."""
    space = domain.space
    if prefs_agg.ground != frozenset(space.members):
        raise GroundMismatch(
            "aggregate preference distribution must rank exactly the aggregates"
        )
    menus = [[space.index(a) for a in menu] for menu in domain.menus]
    winners = _winners(prefs_agg.ranks(space.members), menus)
    weights = np.fromiter(prefs_agg.weights.values(), float)
    table: dict[Menu, dict[str, float]] = {}
    for menu, picks in zip(domain.menus, winners):
        mass = np.bincount(picks, weights, len(space.members))
        table[menu] = {a: float(mass[space.index(a)]) for a in menu}
    return StochasticChoice(space, table)


@dataclass(frozen=True)
class MenuCollectionFamily:
    """Deviation sets of a menu-effect vertex.

    `per_aggregate[a]` lists the menus on which the agent abandons the
    ranking and picks the non-atomic aggregate `a`.  Menus in no
    collection follow the ranking.
    """

    per_aggregate: Mapping[str, frozenset[Menu]]

    def __post_init__(self):
        cleaned: dict[str, frozenset[Menu]] = {}
        seen: set[Menu] = set()
        for a, menus in self.per_aggregate.items():
            menus = frozenset(frozenset(m) for m in menus)
            if seen & menus:
                raise ValueError("deviation collections must be pairwise disjoint")
            seen |= menus
            cleaned[a] = menus
        object.__setattr__(self, "per_aggregate", cleaned)

    @staticmethod
    def empty() -> "MenuCollectionFamily":
        return MenuCollectionFamily({})

    @staticmethod
    def single(aggregate: str, menus: Iterable[Menu]) -> "MenuCollectionFamily":
        return MenuCollectionFamily({aggregate: frozenset(frozenset(m) for m in menus)})

    def deviation_target(self, menu: Menu) -> str | None:
        for a, menus in self.per_aggregate.items():
            if menu in menus:
                return a
        return None

    def deviation_menus(self) -> frozenset[Menu]:
        out: set[Menu] = set()
        for menus in self.per_aggregate.values():
            out |= menus
        return frozenset(out)


def vertex_choice(
    order: LinearOrder,
    family: MenuCollectionFamily,
    domain: ChoiceDomain,
) -> StochasticChoice:
    """Deterministic menu-effect choice function.

    Follows the ranking on menus outside every deviation collection and
    defaults to aggregate `a` on menus in its collection.  These 0/1
    tables are the vertices of the RU polytope.
    """
    space = domain.space
    if order.ground != frozenset(space.members):
        raise GroundMismatch("vertex order must rank exactly the aggregates")
    table: dict[Menu, dict[str, float]] = {}
    for menu in domain.menus:
        target = family.deviation_target(menu)
        if target is not None:
            if target not in menu:
                raise AggregateNotInMenu(
                    f"menu {sorted(menu)} routed to {target!r} which it lacks"
                )
            chosen = target
        else:
            chosen = order.best(menu)
        table[menu] = {a: (1.0 if a == chosen else 0.0) for a in menu}
    return StochasticChoice(space, table)
