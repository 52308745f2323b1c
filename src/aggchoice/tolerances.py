"""Every tolerance the library compares against, each defined once.

Each name answers one question, and its comment says why it has its
value.  The other modules import these names and write no float
thresholds of their own; `tests/test_tolerances.py` enforces that.
The questions, in the order a dataset meets them:

* Is an input a probability table?
* Is a data value zero, or equal to another?
* How much slack does an axiom allow?
* Does an LP count as feasible?
* What bound must a replay meet?
* How close must a grid step be to dividing 1?
* Solver-internal thresholds, which decide no verdict on their own.
"""

from __future__ import annotations

from .errors import InvalidGridStep

# -- Is an input a probability table? ---------------------------------------

#: A probability table (a menu's row, a preference or a composition
#: distribution, a composition triple typed on the command line) may
#: hold weights down to -PROB_TOL and total, by `math.fsum`, within
#: PROB_TOL of 1.  Inside that it is clipped and renormalized, outside
#: it is rejected.  The bound is a few thousand ulps of 1: room for the
#: rounding of a sum of floats, not for modelling error.
PROB_TOL = 1e-12

# -- Is a data value zero, or equal to another? -----------------------------

# A value at or below PROB_TOL is zero: renormalizing a row moves its
# values by about that much, so nothing smaller can be told from zero.

#: Per-menu composition distributions agree when every marginal tuple
#: weight differs by at most this; this gap is the total-variation
#: witness of menu dependence.
MARGINAL_TOL = 1e-10

#: The grid oracle treats a mixed-menu probability as equal to its
#: atomic-menu anchor within this, which removes that cell's weights
#: from the search.  Its witness replay (GRID_REPLAY_TOL) absorbs the
#: difference.
ANCHOR_TOL = 1e-9

# -- How much slack does an axiom allow? ------------------------------------

#: A limited-monotonicity comparison or a Block-Marschak sum may fall
#: short of its bound by this much and still pass.  A Block-Marschak sum
#: adds up to 64 table values (at 7 atomic ids), each known to PROB_TOL,
#: so its error stays below this; `bm_tol` scales it past 7 ids.
AXIOM_TOL = 1e-10


def bm_tol(atoms: int) -> float:
    """Slack of a Block-Marschak sum on the full domain of `atoms` ids:
    the slack of every Block-Marschak verdict, the partial RU check's
    and the full-domain ARU check's alike.

    The singleton's sum adds the most table values, 2^(atoms - 1).
    AXIOM_TOL covers 64 of them; each doubling beyond that doubles the
    slack, so 128 values at 8 ids get 2 * AXIOM_TOL.
    """
    return AXIOM_TOL * max(1, 2 ** (atoms - 1) // 64)


# -- Does an LP count as feasible? ------------------------------------------

#: An exact LP (the ARU and partial-RU checks, the joint-composition LP)
#: is feasible when its phase-1 objective is at most this, and the
#: point it returns must meet every row within this.  Each row is a
#: choice probability or a composition weight, so 1e-9 is far above the
#: simplex's rounding at these sizes and far below any data value.
LP_TOL = 1e-9

#: The grid oracle's LPs accept this.  It is looser than LP_TOL because
#: the candidate compositions are quantized, so the rows carry model
#: error, not only rounding.
GRID_TOL = 1e-7

# -- What bound must a replay meet? -----------------------------------------


def certificate_tol(lp_tol: float) -> float:
    """Bound on one cell of a certificate from an LP accepted at `lp_tol`.

    The LP holds every row, the total-mass row among them, to `lp_tol`.
    Dividing the point by its total therefore moves a cell by up to
    ``(lp_tol + lp_tol) / (1 - lp_tol)``.  The last term covers rounding
    and the weights below SUPPORT_FLOOR that the certificate drops.
    """
    return 2 * lp_tol / (1 - lp_tol) + 1e-11


#: Replay bound of a certificate from an exact LP (accepted at LP_TOL).
CERTIFICATE_TOL = certificate_tol(LP_TOL)


def flow_tol(atoms: int) -> float:
    """Bound on one cell of a Block-Marschak flow certificate.

    The flow on the subset lattice of `atoms` ids carries the
    Block-Marschak sums, with those in [-bm_tol, 0) clipped to 0.
    Clipping moves a value by at most bm_tol and leaves the two nodes
    of its edge that much out of balance, so the chains leave undrained,
    or drop, about that much mass on the edges around it.  The bound
    takes each value the chains carry to be within bm_tol of its sum;
    imbalances of many clipped sums that pile up on one edge could break
    it, and the certificate's replay would then raise.  A cell rho(x, A)
    sums 2^(atoms - |A|) flow values, at most 2^(atoms - 1) of them.
    Dividing the chains by their total, which is within as much of 1,
    at most doubles that.  The last term covers rounding: each sum adds
    at most 2^atoms table values.  So it also bounds the gap between a
    sum from the Möbius pass and its `fsum` replay, which is rounding.
    """
    return 2**atoms * bm_tol(atoms) + 1e-11


#: Replay bound of a construction that takes no value from an LP.  It is
#: exact up to rounding and the axioms' slack: a cell collects at most
#: the AXIOM_TOL of each of the atomic cells of its menu, which is below
#: 1e-9 while an LP certificate over atomic ids covers at most 7 of them.
VERIFY_TOL = 1e-9


def replay_tol(terms: int, cell_tol: float = CERTIFICATE_TOL) -> float:
    """Replay bound of a table built from `terms` certified cells.

    A rationalizing witness reproduces each cell of a mixed menu as a
    combination, with weights between 0 and 1, of the atomic cells of
    the certificate it extends: `terms` is the number of atomic ids, and
    `cell_tol` bounds one cell of the certificate, the `replay_bound` its
    check's report carries (CERTIFICATE_TOL after the LP,
    ``flow_tol(terms)`` after the Block-Marschak flow).
    A collapsed ARU distribution reproduces each cell as such a
    combination of a menu's composition tuples, whose joint marginals
    match the menu's distribution within CERTIFICATE_TOL: `terms`
    bounds the number of tuples in one menu.  Each term misses by at
    most `cell_tol`, so the table misses by at most that many of them on
    top of VERIFY_TOL.  A replay after a certificate therefore never
    rejects what the certificate's check accepted.
    """
    return VERIFY_TOL + terms * cell_tol


#: Replay bound of a grid-oracle witness.  It sits above the bound
#: derived as for `replay_tol`: at most 3 atomic cells, each within
#: ``certificate_tol(GRID_TOL)``, plus ANCHOR_TOL, about 6e-7.
GRID_REPLAY_TOL = 10 * GRID_TOL

# -- How close must a grid step be to dividing 1? ---------------------------

#: A grid step divides 1 when some whole number of steps is within this
#: of 1, so decimal steps such as 0.1 or 0.02 are accepted.
STEP_TOL = 1e-9


def grid_steps(step: float, name: str) -> int:
    """The number of grid steps of size `step` that make up 1.

    Raises `InvalidGridStep`, a `ValueError`, naming the parameter when
    no positive whole number of steps is within STEP_TOL of 1.
    """
    steps = round(1.0 / step) if step > 0 else 0
    if steps < 1 or abs(steps * step - 1.0) > STEP_TOL:
        raise InvalidGridStep(f"{name} must divide 1")
    return steps


# -- Solver-internal thresholds ---------------------------------------------

#: The simplex treats pivot elements and reduced costs smaller than this
#: as zero.  Tableau entries are sums of a few probabilities, so this is
#: far above their rounding.
PIVOT_TOL = 1e-10

#: Mixture weights at or below this are dropped from an LP's support; a
#: weight this small changes no cell by more than rounding.
SUPPORT_FLOOR = 1e-15

#: Frank-Wolfe stops when its duality gap, an upper bound on how far the
#: squared distance is above its minimum, falls below this.
GAP_TOL = 1e-10

#: The least-squares step of Frank-Wolfe accepts a solution whose weights
#: are all above -ACTIVE_SET_TOL, and drops weights below
#: ACTIVE_SET_FLOOR when it steps to the boundary.
ACTIVE_SET_TOL = 1e-12
ACTIVE_SET_FLOOR = 1e-14

#: Frank-Wolfe keeps its active vertices affinely independent.  A new
#: vertex whose squared distance from their span, in the triangular
#: factor of the augmented Gram matrix, is at most this fraction of its
#: squared norm lies in their affine hull up to rounding.  That rounding
#: is about 1e-16 times the factor's condition number, which reached 7e3
#: on 7-id data with 322 active vertices (a full-dimensional corral).
AFFINE_TOL = 1e-10

#: The lattice oracle counts two path costs as equal when they differ by
#: at most this times the total absolute cost.  A path cost adds 8 edge
#: costs at most, each a sum of at most 128 cell costs, so its rounding
#: stays below 1e-13 of that total: a tie of the exact sums stays a tie.
ORDER_TIE_TOL = 1e-12

#: Newton stops when the log likelihood's gradient has max norm at most
#: this.
GRADIENT_TOL = 1e-10

#: A damped Newton step is taken when the log likelihood falls by no
#: more than this: a few ulps of its magnitude.
ASCENT_SLACK = 1e-15
