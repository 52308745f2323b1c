import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggchoice import (
    AggregateSpace,
    ChoiceDomain,
    LinearOrder,
    NoConvergence,
    PreferenceDistribution,
    linprog,
)
from aggchoice.axioms import CERTIFICATE_TOL, check_aru_rational
from aggchoice.linprog import solve_feasibility, solve_mixture
from aggchoice.model import aru_evaluate, order_events


def test_feasible_system():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 0.5])
    result = solve_feasibility(a, b)
    assert result.feasible
    assert np.allclose(a @ result.x, b, atol=1e-12)
    assert (result.x >= 0).all()


def test_infeasible_system():
    # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold.
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    result = solve_feasibility(a, b)
    assert not result.feasible
    assert result.residual > 0.4


def test_negative_rhs_handled():
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([-0.25, 0.75])
    result = solve_feasibility(a, b)
    assert result.feasible
    assert np.allclose(a @ result.x, b, atol=1e-12)


def test_nonnegativity_binding():
    # Only solution to x1 - x2 = 1, x1 + x2 = 1 is (1, 0).
    a = np.array([[1.0, -1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    result = solve_feasibility(a, b)
    assert result.feasible
    assert np.allclose(result.x, [1.0, 0.0], atol=1e-12)


def test_infeasible_by_sign():
    # x >= 0 cannot produce a negative coordinate sum with nonneg matrix.
    a = np.array([[1.0, 2.0]])
    b = np.array([-1.0])
    result = solve_feasibility(a, b)
    assert not result.feasible


def test_deterministic_solution():
    rng = np.random.default_rng(0)
    a = rng.random((6, 40))
    x_true = np.zeros(40)
    x_true[[3, 7, 21]] = (0.2, 0.5, 0.3)
    b = a @ x_true
    first = solve_feasibility(a, b)
    second = solve_feasibility(a, b)
    assert first.feasible and second.feasible
    assert np.array_equal(first.x, second.x)


def test_random_feasible_batch():
    rng = np.random.default_rng(42)
    for _ in range(25):
        m, n = int(rng.integers(2, 8)), int(rng.integers(8, 30))
        a = rng.random((m, n))
        x_true = np.abs(rng.random(n)) * (rng.random(n) < 0.3)
        b = a @ x_true
        result = solve_feasibility(a, b)
        assert result.feasible
        assert np.abs(a @ result.x - b).max() < 1e-9


@pytest.mark.parametrize(
    "point",
    [
        [0.5, 0.0],  # misses the row by 0.5
        [1.0 + 1e-8, 0.0],  # misses by more than the tolerance
        [1.5, -0.5],  # solves the row but is negative
    ],
)
def test_returned_point_is_checked(monkeypatch, point):
    monkeypatch.setattr(
        linprog, "_phase_one", lambda a, b: (np.array(point), 0.0, 1, 0)
    )
    with pytest.raises(NoConvergence):
        solve_feasibility(np.array([[1.0, 1.0]]), np.array([1.0]), tol=1e-9)


def test_point_check_uses_callers_tolerance(monkeypatch):
    monkeypatch.setattr(
        linprog, "_phase_one", lambda a, b: (np.array([1.0 + 1e-8, 0.0]), 0.0, 1, 0)
    )
    result = solve_feasibility(np.array([[1.0, 1.0]]), np.array([1.0]), tol=1e-7)
    assert result.feasible


def test_point_check_does_not_cast_a_boolean_matrix(monkeypatch):
    # A basic point has few nonzeros; checking it must not build a
    # float64 copy of the whole event matrix.
    i, j = np.indices((400, 3000))
    a = (i * 7 + j * 3) % 5 == 0
    x = np.zeros(a.shape[1])
    x[[3, 1000, 2999]] = (0.5, 0.25, 0.25)
    b = a.astype(float) @ x
    monkeypatch.setattr(linprog, "_phase_one", lambda a, b: (x.copy(), 0.0, 1, 0))
    tracemalloc.start()
    try:
        result = solve_feasibility(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.feasible
    assert peak < a.size * np.dtype(float).itemsize


# Golden outputs of the phase-1 simplex.  The pivot sequence is fixed by
# the pricing rule (Dantzig's, with Bland's after a degenerate pivot) and
# the ratio test's smallest-basis-index tie-break, so a rewrite that does
# the same float operations returns the same bytes and pivot counts; a
# changed digest or count means a changed pivot or rounding.  The systems
# are built from exact formulas, not a random generator.


def _digest(x):
    return hashlib.sha256(x.tobytes()).hexdigest()


def _aru_event_system():
    """A 5-id ARU order-mixture LP: every menu of two or more ids, plus mass."""
    ground = ("a", "b", "c", "d", "e")
    menus = [
        frozenset(c) for k in range(2, 6) for c in itertools.combinations(ground, k)
    ]
    cells = [(m, x) for m in menus for x in ground if x in m]
    events = order_events(ground, cells)
    a = np.vstack([events, np.ones((1, events.shape[1]))])
    weights = np.zeros(a.shape[1])
    weights[[5, 37, 64, 118]] = (0.5, 0.25, 0.125, 0.125)  # dyadic: b is exact
    return a, a @ weights


def _aru_bool_system():
    """The aru-5 system with its 0/1 matrix as bools, as the ARU check builds it."""
    a, b = _aru_event_system()
    return a.astype(bool), b


def _negative_rhs_system():
    i, j = np.indices((6, 14))
    a = ((3 * i + 5 * j + i * j) % 9 - 4) / 4.0
    x = np.zeros(14)
    x[[1, 4, 9, 12]] = (0.75, 0.5, 1.25, 0.25)
    return a, a @ x


def _degenerate_system():
    """0/1 columns and a right-hand side with zeros: the ratio test ties."""
    i, j = np.indices((8, 20))
    a = (((i + 2 * j) % 5 == 0) | ((i * j) % 7 == 3)).astype(float)
    x = np.zeros(20)
    x[[2, 7, 11, 19]] = 1.0
    return a, a @ x


def _infeasible_system():
    i, j = np.indices((5, 10))
    a = ((2 * i + 3 * j) % 7) / 8.0
    return a, np.array([1.0, 0.25, 2.0, 0.5, 1.5])


@pytest.mark.parametrize(
    "system, digest, residual, pivots, bland_pivots",
    [
        (
            _aru_event_system,
            "dc8452539308256872e4e128120a7b022c0fd321b7c892a9c5134c8d87e2e116",
            "-0.0",
            30,
            23,
        ),
        (
            _aru_bool_system,
            "dc8452539308256872e4e128120a7b022c0fd321b7c892a9c5134c8d87e2e116",
            "-0.0",
            30,
            23,
        ),
        (
            _negative_rhs_system,
            "5e3099cf1fe1daae3bb249e897fd4d1f7c751f1d6b066d12847c48f506195f86",
            "2.220446049250313e-16",
            7,
            2,
        ),
        (
            _degenerate_system,
            "615aa11e2e8f65896d61dda86c67c5e4a2f8da89cc86df6619c5d733b222c0fb",
            "-0.0",
            8,
            3,
        ),
    ],
    ids=["aru-5", "aru-5-bool", "negative-rhs", "degenerate"],
)
def test_golden_feasible_points(system, digest, residual, pivots, bland_pivots):
    a, b = system()
    result = solve_feasibility(a, b)
    assert result.feasible
    assert _digest(result.x) == digest
    assert repr(result.residual) == residual
    assert (result.pivots, result.bland_pivots) == (pivots, bland_pivots)


def test_golden_infeasible_residual():
    a, b = _infeasible_system()
    result = solve_feasibility(a, b)
    assert not result.feasible
    assert result.x is None
    assert repr(result.residual) == "2.208333333333333"
    assert (result.pivots, result.bland_pivots) == (3, 0)


def test_golden_systems_exercise_their_cases():
    assert (_negative_rhs_system()[1] < 0).sum() == 4
    assert (_degenerate_system()[1] == 0).sum() == 2


def _bland_phase_one(a, b):
    """The reference rule: Bland's smallest eligible index on every pivot.

    The same tableau and ratio test as `linprog._phase_one`, with the
    whole tableau updated at once.  Returns the point, the artificial
    mass and the pivot count.
    """
    m, n = a.shape
    flip = b < 0
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = np.where(flip[:, None], -a, a)
    tab[:m, -1] = np.abs(b)
    tab[m, :n] = -tab[:m, :n].sum(axis=0)
    tab[m, -1] = -tab[:m, -1].sum()
    basis = list(range(n, n + m))
    pivots = 0
    while True:
        candidates = np.flatnonzero(tab[m, :n] < -linprog.PIVOT_TOL)
        if candidates.size == 0:
            break
        col = int(candidates[0])
        ratios = np.full(m, np.inf)
        positive = tab[:m, col] > linprog.PIVOT_TOL
        ratios[positive] = tab[:m, -1][positive] / tab[:m, col][positive]
        best = ratios.min()
        if not np.isfinite(best):
            break
        tied = np.flatnonzero(ratios <= best + linprog.PIVOT_TOL * (1 + abs(best)))
        row = int(min(tied, key=lambda r: basis[r]))
        pivot_row = tab[row] / tab[row, col]
        tab -= np.outer(tab[:, col], pivot_row)
        tab[row] = pivot_row
        basis[row] = col
        pivots += 1
    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = max(tab[r, -1], 0.0)
    return x, float(-tab[m, -1]), pivots


@pytest.mark.parametrize(
    "system, digest, residual, pivots",
    [
        (
            _negative_rhs_system,
            "a4a3fa7e7e6a9b2d9305d674ff073ab08ea5cc506303767b587aa33f6ff73a5d",
            "4.440892098500626e-16",
            6,
        ),
        (_infeasible_system, None, "2.2083333333333335", 6),
    ],
    ids=["negative-rhs", "infeasible"],
)
def test_bland_reference_reproduces_the_bland_only_goldens(
    system, digest, residual, pivots
):
    # The digests and residuals the simplex returned when it priced by
    # Bland's rule alone: the reference is that loop.
    x, mass, count = _bland_phase_one(*system())
    if digest is not None:
        assert _digest(x) == digest
    assert (repr(mass), count) == (residual, pivots)


@st.composite
def _small_systems(draw):
    """Small integer systems of four kinds; `infeasible` ones are so by design."""
    kind = draw(st.sampled_from(["zero-one", "integer", "negative-rhs", "infeasible"]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    lo = 0 if kind == "zero-one" else -3
    hi = 1 if kind == "zero-one" else 3
    entries = draw(st.lists(st.integers(lo, hi), min_size=m * n, max_size=m * n))
    a = np.array(entries, dtype=float).reshape(m, n)
    x = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
    if kind == "zero-one":
        x *= np.arange(n) % 2  # sparse points leave zero right-hand sides
    if kind == "negative-rhs":
        a[: max(1, m // 2)] = -np.abs(a[: max(1, m // 2)])
    b = a @ x
    if kind == "integer" and draw(st.booleans()):
        b = np.array(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)), float)
    if kind == "infeasible":
        # A row that sums the others with a right-hand side one too large.
        a = np.vstack([a, a.sum(axis=0)])
        b = np.append(b, b.sum() + 1.0)
    return kind, a, b


@given(system=_small_systems())
@settings(max_examples=300, deadline=None)
def test_pricing_rule_keeps_the_bland_verdict(system):
    kind, a, b = system
    result = solve_feasibility(a, b)
    _, mass, _ = _bland_phase_one(a, b)
    assert result.feasible == (mass <= linprog.LP_TOL)
    if kind == "infeasible":
        assert not result.feasible
    if result.feasible:
        assert (result.x >= 0.0).all()
        assert np.abs(a @ result.x - b).max(initial=0.0) <= linprog.LP_TOL
    assert 0 <= result.bland_pivots <= result.pivots


def _outer_phase_one(a, b):
    """The reference kernel: the pivot loop as it ran at numpy's default buffer.

    The same tableau, pricing, ratio test and blocks as
    `linprog._phase_one`, with a fresh `np.outer` per block per pivot and
    a Python list for the basis.  Returns the point, the artificial mass
    and both pivot counts.  Like `linprog._phase_one`, it raises
    `NoConvergence` when the entering column has no positive entry.
    """
    m, n = a.shape
    flip = b < 0
    b = np.where(flip, -b, b)
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = a
    np.negative(tab[:m, :n], out=tab[:m, :n], where=flip[:, None])
    tab[:m, -1] = b
    tab[m, :n] = -tab[:m, :n].sum(axis=0)
    tab[m, -1] = -b.sum()
    step = max(1, linprog.BLOCK_BYTES // tab[0].nbytes)
    basis = list(range(n, n + m))
    pivots = bland_pivots = 0
    bland = False
    while True:
        costs = tab[m, :n]
        candidates = np.flatnonzero(costs < -linprog.PIVOT_TOL)
        if candidates.size == 0:
            break
        if pivots == linprog._MAX_PIVOTS:
            raise NoConvergence("simplex pivot cap exceeded")
        if bland:
            col = int(candidates[0])
            bland_pivots += 1
        else:
            col = int(np.argmin(costs))
        ratios = np.full(m, np.inf)
        positive = tab[:m, col] > linprog.PIVOT_TOL
        ratios[positive] = tab[:m, -1][positive] / tab[:m, col][positive]
        best = ratios.min()
        if not np.isfinite(best):
            raise NoConvergence("simplex found a ray in a bounded phase 1")
        tied = np.flatnonzero(ratios <= best + linprog.PIVOT_TOL * (1 + abs(best)))
        row = int(min(tied, key=lambda r: basis[r]))
        objective = tab[m, -1]
        pivot_row = tab[row]
        pivot_row /= pivot_row[col]
        for start, stop in ((0, row), (row + 1, m + 1)):
            for lo in range(start, stop, step):
                block = tab[lo : min(lo + step, stop)]
                block -= np.outer(block[:, col], pivot_row)
        basis[row] = col
        pivots += 1
        bland = not tab[m, -1] > objective
    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = max(tab[r, -1], 0.0)
    return x, float(-tab[m, -1]), pivots, bland_pivots


@st.composite
def _kernel_systems(draw):
    """Systems of 1-24 rows and 1-1100 columns, on both sides of WIDE_TABLEAU.

    0/1 matrices with sparse points (degenerate: Bland pivots), normal
    matrices with a point or a free right-hand side (infeasible ones
    too), and some rows negated so that their right-hand side is
    negative.  `rows_per_block` 1-3 shrinks BLOCK_BYTES so that one
    pivot spans many blocks and the pivot row sits inside one; 0 keeps
    the library's blocks.
    """
    kind = draw(st.sampled_from(["zero-one", "normal-point", "normal-free"]))
    m = draw(st.integers(1, 24))
    n = draw(st.one_of(st.integers(1, 80), st.integers(81, 1100)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "zero-one":
        a = (rng.random((m, n)) < draw(st.sampled_from([0.2, 0.5]))).astype(float)
        b = a @ (rng.integers(0, 3, n) * (rng.random(n) < 0.2))
    else:
        a = rng.standard_normal((m, n))
        b = a @ (rng.random(n) * (rng.random(n) < 0.3))
        if kind == "normal-free":
            b = rng.standard_normal(m)
    negate = rng.random(m) < draw(st.sampled_from([0.0, 0.5]))
    a[negate] *= -1.0
    b[negate] *= -1.0
    return a, b, draw(st.integers(0, 3))


def _same_outcome(a, b):
    """`_phase_one` and the reference, run alike: both results, or both errors."""
    outcomes = []
    for kernel in (linprog._phase_one, _outer_phase_one):
        try:
            outcomes.append(kernel(a, b))
        except NoConvergence as err:
            outcomes.append(str(err))
    ours, reference = outcomes
    if isinstance(ours, str) or isinstance(reference, str):
        assert ours == reference
        return
    assert ours[0].tobytes() == reference[0].tobytes()
    assert ours[1:] == reference[1:]
    assert np.getbufsize() == 8192


@given(system=_kernel_systems())
@settings(max_examples=120, deadline=None)
def test_kernel_matches_the_outer_product_reference(system):
    a, b, rows_per_block = system
    with pytest.MonkeyPatch.context() as patch:
        if rows_per_block:
            patch.setattr(linprog, "BLOCK_BYTES", rows_per_block * (a.shape[1] + 1) * 8)
        _same_outcome(a, b)


@pytest.mark.parametrize(
    "system",
    [_aru_event_system, _aru_bool_system, _negative_rhs_system, _degenerate_system,
     _infeasible_system],
    ids=["aru-5", "aru-5-bool", "negative-rhs", "degenerate", "infeasible"],
)
def test_kernel_matches_the_reference_on_the_goldens(system):
    a, b = system()
    _same_outcome(a.astype(float), b)


def _ray_system():
    """30 rows of one entry 1e-3 and right-hand side 1e-3: x = 1 solves it."""
    return np.full((30, 1), 1e-3), np.full(30, 1e-3)


def test_a_phase_one_ray_raises(monkeypatch):
    # The entering column's reduced cost is -0.03, and no entry is above
    # the patched pivot tolerance: the ratio test finds no row.  Phase 1
    # is bounded below, so that is lost accuracy, not an infeasible
    # verdict with the artificial mass left.
    monkeypatch.setattr(linprog, "PIVOT_TOL", 5e-3)
    with pytest.raises(NoConvergence, match="ray"):
        solve_feasibility(*_ray_system())


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
@pytest.mark.parametrize("exit_by", ["return", "ray", "pivot-cap"])
def test_solve_restores_the_callers_buffer_size(monkeypatch, wide, exit_by):
    a, b = _ray_system() if exit_by == "ray" else _aru_event_system()
    if wide:  # the small buffer is set whatever the width
        monkeypatch.setattr(linprog, "WIDE_TABLEAU", 0)
    else:
        monkeypatch.setattr(linprog, "WIDE_TABLEAU", 10**9)
    if exit_by == "ray":
        monkeypatch.setattr(linprog, "PIVOT_TOL", 5e-3)
    if exit_by == "pivot-cap":
        monkeypatch.setattr(linprog, "_MAX_PIVOTS", 1)
    seen = []
    real_setbufsize = np.setbufsize
    monkeypatch.setattr(
        np, "setbufsize", lambda size: seen.append(size) or real_setbufsize(size)
    )
    before = real_setbufsize(4096)
    try:
        if exit_by == "return":
            assert solve_feasibility(a, b).feasible
        else:
            with pytest.raises(NoConvergence):
                solve_feasibility(a, b)
        assert np.getbufsize() == 4096
    finally:
        real_setbufsize(before)
    assert seen == ([linprog.PIVOT_BUFSIZE, 4096] if wide else [4096])


@pytest.mark.parametrize(
    "system", [_aru_event_system, _negative_rhs_system], ids=["wide", "narrow"]
)
def test_callers_buffer_size_does_not_change_the_bits(system):
    a, b = system()
    default = linprog._phase_one(a, b)
    before = np.setbufsize(65536)
    try:
        large = linprog._phase_one(a, b)
    finally:
        np.setbufsize(before)
    assert large[0].tobytes() == default[0].tobytes()
    assert large[1:] == default[1:]


def test_interior_aru_lp_pivot_count(monkeypatch):
    """All 720 orders of 6 ids with positive weight: the ARU LP's interior case.

    Pinned as pivot counts, not timings: Dantzig's rule takes about a
    quarter of the pivots Bland's rule takes on this system.
    """
    space = AggregateSpace(("a", "b", "c", "d", "e"), ("o",))
    orders = [LinearOrder(p) for p in itertools.permutations(space.members)]
    weights = np.random.default_rng(0).random(len(orders)) + 0.05
    weights /= weights.sum()
    prefs = PreferenceDistribution(
        {o: float(w) for o, w in zip(orders, weights)}
    )
    rho = aru_evaluate(prefs, ChoiceDomain.full(space))

    solved = []

    def spy(rows, rhs, tol):
        solved.append((rows, rhs))
        result, support = solve_mixture(rows, rhs, tol)
        solved.append(result)
        return result, support

    monkeypatch.setattr(linprog, "solve_mixture", spy)
    report = check_aru_rational(rho, space)
    assert report.passed and report.method == "lp"
    replay = aru_evaluate(report.certificate, ChoiceDomain.full(space))
    assert replay.max_cell_difference(rho) <= CERTIFICATE_TOL

    (rows, rhs), result = solved
    assert rows.shape == (192, 720)
    assert (result.pivots, result.bland_pivots) == (222, 0)
    a = np.vstack([rows, np.ones((1, rows.shape[1]), dtype=rows.dtype)])
    _, mass, bland_only = _bland_phase_one(a.astype(float), np.append(rhs, 1.0))
    assert mass <= linprog.LP_TOL
    assert bland_only == 883


def test_verdicts_agree_with_highs():
    """Seeded random systems: the verdict matches HiGHS, and x solves a @ x = b."""
    optimize = pytest.importorskip("scipy.optimize")
    verdicts = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 9)), int(rng.integers(3, 25))
        if seed % 3 == 0:
            a = (rng.random((m, n)) < 0.4).astype(float)
        else:
            a = rng.standard_normal((m, n))
        if seed % 2 == 0:
            x = rng.random(n) * (rng.random(n) < 0.3)
            b = a @ x
        else:
            b = rng.standard_normal(m)
        ours = solve_feasibility(a, b)
        highs = optimize.linprog(
            np.zeros(n), A_eq=a, b_eq=b, bounds=(0, None), method="highs"
        )
        assert highs.status in (0, 2), highs.message
        assert ours.feasible == (highs.status == 0), seed
        if ours.feasible:
            assert (ours.x >= 0).all()
            assert np.abs(a @ ours.x - b).max() <= linprog.LP_TOL
        verdicts.append(ours.feasible)
    assert 10 <= sum(verdicts) <= 40  # both verdicts are exercised


def test_result_reports_pivots_and_max_residual():
    a, b = _aru_event_system()
    result = solve_feasibility(a, b)
    assert result.feasible
    assert result.pivots > 0
    assert result.max_residual == float(np.abs(a @ result.x - b).max())
    assert result.max_residual <= linprog.LP_TOL
    infeasible = solve_feasibility(*_infeasible_system())
    assert not infeasible.feasible
    assert infeasible.pivots > 0
    assert infeasible.max_residual == 0.0


def test_mixture_support_drops_tiny_weights_and_renormalizes():
    rhs = np.array([0.75, 0.25 - 5e-15, 1e-15, 4e-15])
    result, support = solve_mixture(np.eye(4), rhs, 1e-9)
    assert result.feasible
    assert result.x[2] == 1e-15
    kept = result.x[[0, 1, 3]]
    assert support == dict(zip([0, 1, 3], kept / math.fsum(kept)))
    assert math.fsum(support.values()) == pytest.approx(1.0, abs=1e-15)


def test_mixture_support_is_empty_when_infeasible():
    result, support = solve_mixture(np.eye(2), np.array([0.7, 0.7]), 1e-9)
    assert not result.feasible
    assert support == {}
