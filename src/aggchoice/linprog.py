"""Dense phase-1 simplex for small equality-constrained feasibility problems.

All the linear programs in this library are feasibility questions of the
form ``A x = b, x >= 0`` with a few dozen rows and at most a few thousand
columns (orders of a small ground set).  A dense tableau with Bland's
pivoting rule is exact enough at this scale and, unlike an external
solver, bit-deterministic: the same input always yields the same basic
feasible point, so returned certificates are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence

#: Pivot elements smaller than this are treated as zero.
PIVOT_TOL = 1e-10

#: Default acceptance tolerance on the phase-1 objective (sum of residuals).
FEAS_TOL = 1e-9

_MAX_PIVOTS = 200_000


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: np.ndarray | None
    residual: float


def solve_feasibility(
    a: np.ndarray, b: np.ndarray, tol: float = FEAS_TOL
) -> FeasibilityResult:
    """Find x >= 0 with ``a @ x = b``, or report infeasibility.

    Runs phase-1 simplex (minimize the sum of artificial variables) with
    Bland's anti-cycling rule.  Feasible iff the optimal artificial mass
    is at most `tol`; the returned point is the first basic feasible
    solution the deterministic pivot order reaches.  That point is
    checked before it is returned: a negative entry or a row of
    ``a @ x - b`` off by more than `tol` raises `NoConvergence`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError("b must match the row count of a")
    x, residual = _phase_one(a, b)
    if residual > tol:
        return FeasibilityResult(False, None, residual)
    if not (x >= 0.0).all():
        raise NoConvergence("simplex point has a negative or undefined entry")
    miss = float(np.abs(a @ x - b).max(initial=0.0))
    if not miss <= tol:
        raise NoConvergence(
            f"simplex point misses a @ x = b by {miss!r} (tolerance {tol!r})"
        )
    return FeasibilityResult(True, x, max(residual, 0.0))


def _phase_one(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Phase-1 simplex: the final basic point and its artificial mass."""
    m, n = a.shape

    # Flip rows so the right-hand side is nonnegative.
    flip = b < 0
    a = np.where(flip[:, None], -a, a)
    b = np.where(flip, -b, b)

    # Tableau [A | I | b]; objective row below carries reduced costs for
    # minimizing the artificial sum, with -objective in its RHS cell.
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a
    tab[:m, n : n + m] = np.eye(m)
    tab[:m, -1] = b
    tab[m, :n] = -a.sum(axis=0)
    tab[m, -1] = -b.sum()

    basis = list(range(n, n + m))
    blocked = np.zeros(n + m, dtype=bool)  # artificials that left the basis

    for _ in range(_MAX_PIVOTS):
        costs = tab[m, : n + m]
        candidates = np.where((costs < -PIVOT_TOL) & ~blocked)[0]
        if candidates.size == 0:
            break
        col = int(candidates[0])  # Bland: smallest eligible index
        ratios = np.full(m, np.inf)
        positive = tab[:m, col] > PIVOT_TOL
        ratios[positive] = tab[:m, -1][positive] / tab[:m, col][positive]
        best = ratios.min()
        if not np.isfinite(best):
            # Unbounded phase-1 cannot happen with artificial costs >= 0;
            # treat defensively as a failed pivot.
            break
        tied = np.where(ratios <= best + PIVOT_TOL * (1 + abs(best)))[0]
        row = int(min(tied, key=lambda r: basis[r]))  # Bland on ties

        pivot = tab[row, col]
        tab[row] /= pivot
        other = np.arange(m + 1) != row
        tab[other] -= np.outer(tab[other, col], tab[row])
        leaving = basis[row]
        if leaving >= n:
            blocked[leaving] = True
        basis[row] = col
    else:
        raise NoConvergence("simplex pivot cap exceeded")

    x = np.zeros(n)
    for r, j in enumerate(basis):
        if j < n:
            x[j] = max(tab[r, -1], 0.0)
    return x, float(-tab[m, -1])
