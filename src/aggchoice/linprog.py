"""Dense phase-1 simplex for small equality-constrained feasibility problems.

All the linear programs in this library are feasibility questions of the
form ``A x = b, x >= 0`` with a few dozen rows and at most a few thousand
columns (orders of a small ground set).  A dense tableau is exact enough
at this scale and, unlike an external solver, bit-deterministic: the same
input always yields the same basic feasible point, so returned
certificates are reproducible.  The entering column is the most negative
reduced cost (Dantzig's rule) while the objective moves, and the smallest
eligible index (Bland's rule) after a degenerate pivot, until it moves
again.  Any cycle revisits a basis at an unchanged objective, so all but
its first pivot would be Bland pivots, and Bland's rule cannot cycle
(Bland 1977, Math. Oper. Res.).

A pivot subtracts from every row its entry in the entering column times
the pivot row.  That rank-one update is elementwise numpy arithmetic,
not a BLAS call, so its rounding does not depend on the BLAS thread
count.  numpy runs a product with a broadcast operand through its ufunc
buffer; at the default 8192 elements it copies the operand into that
buffer on every row narrower than a few thousand entries, and the
product costs three to four times its arithmetic.  So on a tableau at
least `WIDE_TABLEAU` columns wide the pivots run with a `PIVOT_BUFSIZE`
buffer, and the caller's size is restored on every exit.  The buffer
changes how numpy walks the arrays, not which products it takes or in
what order, so the bits are the same.  On narrower tableaus the small
buffer is the slower one, and the default stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .tolerances import LP_TOL, PIVOT_TOL, SUPPORT_FLOOR

_MAX_PIVOTS = 200_000

#: A pivot updates the tableau in blocks of rows of about this many bytes,
#: so the rank-one product, written into one scratch block per solve,
#: stays small and in cache however wide the tableau is.
BLOCK_BYTES = 1 << 18

#: numpy's ufunc buffer size, in elements, while a wide tableau pivots.
PIVOT_BUFSIZE = 16

#: The column count from which the small buffer pays.  The product alone
#: broke even at 57 to 73 columns (30 to 800 rows, numpy 2.4); from
#: 121 columns on it took at most 0.65 of its time at the default buffer,
#: and at 7 to 33 columns up to 2.7 times its time.
WIDE_TABLEAU = 64


@dataclass(frozen=True)
class FeasibilityResult:
    """The verdict, the point and how it was reached.

    `residual` is the phase-1 objective (the artificial mass left),
    `pivots` the number of simplex pivots, `max_residual` the largest
    ``|a @ x - b|`` of the returned point (0.0 when there is none), and
    `bland_pivots` how many of the pivots Bland's fallback chose, after
    a pivot that left the objective unchanged.
    """

    feasible: bool
    x: np.ndarray | None
    residual: float
    pivots: int = 0
    max_residual: float = 0.0
    bland_pivots: int = 0


def solve_feasibility(
    a: np.ndarray, b: np.ndarray, tol: float = LP_TOL
) -> FeasibilityResult:
    """Find x >= 0 with ``a @ x = b``, or report infeasibility.

    Runs phase-1 simplex (minimize the sum of artificial variables),
    pricing by Dantzig's rule with Bland's rule after degenerate pivots.
    Feasible iff the optimal artificial mass is at most `tol`; the
    returned point is the first basic feasible solution the
    deterministic pivot order reaches.  That point is
    checked before it is returned: a negative entry or a row of
    ``a @ x - b`` off by more than `tol` raises `NoConvergence`.
    """
    a = np.asarray(a)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError("b must match the row count of a")
    x, residual, pivots, bland_pivots = _phase_one(a, b)
    if residual > tol:
        return FeasibilityResult(
            False, None, residual, pivots, bland_pivots=bland_pivots
        )
    if not (x >= 0.0).all():
        raise NoConvergence("simplex point has a negative or undefined entry")
    # A basic point has at most one nonzero per row.  Multiplying only
    # those columns never casts the whole of a boolean `a` to float64.
    used = np.flatnonzero(x)
    miss = float(np.abs(a[:, used] @ x[used] - b).max(initial=0.0))
    if not miss <= tol:
        raise NoConvergence(
            f"simplex point misses a @ x = b by {miss!r} (tolerance {tol!r})"
        )
    return FeasibilityResult(True, x, max(residual, 0.0), pivots, miss, bland_pivots)


def solve_mixture(
    rows: np.ndarray, rhs: np.ndarray, tol: float
) -> tuple[FeasibilityResult, dict[int, float]]:
    """Is `rhs` a probability mixture of the columns of `rows`?

    Appends the total-mass row (in the dtype of `rows`, so a boolean
    event matrix stays boolean) and solves ``[rows; 1] x = [rhs; 1]``.
    Returns the result with the support: column index to weight, for
    every weight above SUPPORT_FLOOR, divided by the `math.fsum` of
    those weights.  The support is empty when the system is infeasible.
    """
    a = np.vstack([rows, np.ones((1, rows.shape[1]), dtype=rows.dtype)])
    b = np.append(rhs, 1.0)
    result = solve_feasibility(a, b, tol)
    if not result.feasible:
        return result, {}
    support = {
        int(j): float(result.x[j]) for j in np.flatnonzero(result.x > SUPPORT_FLOOR)
    }
    total = math.fsum(support.values())
    return result, {j: w / total for j, w in support.items()}


def _phase_one(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, int, int]:
    """Phase-1 simplex: final basic point, artificial mass, pivot counts.

    The counts are all pivots and those chosen by Bland's fallback.

    The tableau holds no artificial columns.  Neither rule reads them: a
    basic artificial's column is a unit vector with reduced cost
    exactly 0, and one that leaves the basis may never re-enter.  Basis
    entries ``n + r`` still name the artificial of row r, so ties in the
    ratio test break as if the columns were there.
    """
    m, n = a.shape

    # Tableau [A | b] with rows flipped so the right-hand side is
    # nonnegative; the objective row below carries reduced costs for
    # minimizing the artificial sum, with -objective in its RHS cell.
    flip = b < 0
    b = np.where(flip, -b, b)
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = a
    np.negative(tab[:m, :n], out=tab[:m, :n], where=flip[:, None])
    tab[:m, -1] = b
    tab[m, :n] = -tab[:m, :n].sum(axis=0)
    tab[m, -1] = -b.sum()

    step = max(1, BLOCK_BYTES // tab[0].nbytes)
    product = np.empty((min(step, m + 1), n + 1))
    basis = np.arange(n, n + m)
    pivots = bland_pivots = 0
    bland = False
    bufsize = np.getbufsize()
    if n + 1 >= WIDE_TABLEAU:
        np.setbufsize(PIVOT_BUFSIZE)
    try:
        while True:
            costs = tab[m, :n]
            if bland:
                candidates = np.flatnonzero(costs < -PIVOT_TOL)
                if candidates.size == 0:
                    break
                col = int(candidates[0])  # smallest eligible index
            else:
                col = int(np.argmin(costs))  # most negative, lowest index on ties
                if not costs[col] < -PIVOT_TOL:
                    break
            if pivots == _MAX_PIVOTS:
                raise NoConvergence("simplex pivot cap exceeded")
            bland_pivots += bland
            ratios = np.full(m, np.inf)
            positive = tab[:m, col] > PIVOT_TOL
            ratios[positive] = tab[:m, -1][positive] / tab[:m, col][positive]
            best = ratios.min()
            if not np.isfinite(best):
                # Phase 1 is bounded below by 0, so an entering column
                # with no positive entry means the tableau lost accuracy.
                raise NoConvergence("simplex found a ray in a bounded phase 1")
            tied = np.flatnonzero(ratios <= best + PIVOT_TOL * (1 + abs(best)))
            row = int(tied[np.argmin(basis[tied])])  # lowest basis index on ties

            objective = tab[m, -1]
            pivot_row = tab[row]
            pivot_row /= pivot_row[col]
            for start, stop in ((0, row), (row + 1, m + 1)):
                for lo in range(start, stop, step):
                    block = tab[lo : min(lo + step, stop)]
                    scratch = product[: len(block)]
                    np.multiply(block[:, col, None], pivot_row, out=scratch)
                    block -= scratch
            basis[row] = col
            pivots += 1
            # A degenerate pivot leaves the objective where it was; Bland's
            # rule then chooses until it moves again.
            bland = not tab[m, -1] > objective
    finally:
        np.setbufsize(bufsize)

    x = np.zeros(n)
    for r, j in enumerate(basis.tolist()):
        if j < n:
            x[j] = max(tab[r, -1], 0.0)
    return x, float(-tab[m, -1]), pivots, bland_pivots
