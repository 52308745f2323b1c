"""One tolerance policy: every threshold is defined in `aggchoice.tolerances`."""

import importlib
import pathlib
import re
import tokenize

import pytest

import aggchoice
from aggchoice import VerificationBug, axioms, linprog
from aggchoice.model import verify_replay
from aggchoice.render import _color
from aggchoice.tolerances import (
    ANCHOR_TOL,
    AXIOM_TOL,
    CERTIFICATE_TOL,
    GRID_REPLAY_TOL,
    GRID_TOL,
    LP_TOL,
    PROB_TOL,
    VERIFY_TOL,
    bm_tol,
    certificate_tol,
    flow_tol,
    grid_steps,
    replay_tol,
)

SOURCE = pathlib.Path(aggchoice.__file__).parent


def small_literals(path):
    """(line, text) of every number literal with a negative exponent."""
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type == tokenize.NUMBER and re.search("[eE]-", token.string):
                yield token.start[0], token.string


def test_no_threshold_is_written_outside_the_tolerance_module():
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "tolerances.py"
        for line, text in small_literals(path)
    ]
    assert found == []


def test_the_scan_sees_literals():
    texts = {text for _, text in small_literals(SOURCE / "tolerances.py")}
    assert {"1e-12", "1e-9", "1e-7"} <= texts


def test_names_read_by_other_modules_keep_their_values():
    assert axioms.LP_TOL == LP_TOL == 1e-9
    rationalize = importlib.import_module("aggchoice.rationalize")
    assert rationalize.VERIFY_TOL == VERIFY_TOL == 1e-9
    assert axioms.CERTIFICATE_TOL == CERTIFICATE_TOL == certificate_tol(LP_TOL)
    assert linprog.solve_feasibility.__defaults__ == (LP_TOL,)


@pytest.mark.parametrize("atoms", range(1, 9))
def test_block_marschak_slack_covers_its_terms(atoms):
    # A singleton's sum adds 2^(atoms - 1) table values, each known to
    # PROB_TOL; up to 7 ids the slack stays AXIOM_TOL.
    assert bm_tol(atoms) >= 2 ** (atoms - 1) * PROB_TOL
    assert (bm_tol(atoms) == AXIOM_TOL) == (atoms <= 7)


@pytest.mark.parametrize("atoms", range(1, 9))
def test_flow_bound_covers_the_clipped_sums(atoms):
    # A singleton's cell sums 2^(atoms - 1) flow values, each within
    # the slack of its Block-Marschak sum; renormalizing may double that.
    assert flow_tol(atoms) >= 2 * 2 ** (atoms - 1) * bm_tol(atoms)


def test_replay_bounds_after_an_lp_cover_its_acceptance():
    assert CERTIFICATE_TOL > 2 * LP_TOL
    assert replay_tol(0) == VERIFY_TOL
    assert replay_tol(3) >= VERIFY_TOL + 3 * CERTIFICATE_TOL
    # The grid oracle's bound is above the one derived for its witness:
    # at most 3 atomic cells, each within its certificate bound, plus
    # the anchor equality.
    assert GRID_REPLAY_TOL >= 3 * certificate_tol(GRID_TOL) + ANCHOR_TOL


@pytest.mark.parametrize("step, steps", [(0.1, 10), (0.02, 50), (0.5, 2), (1.0, 1)])
def test_grid_steps(step, steps):
    assert grid_steps(step, "step") == steps


@pytest.mark.parametrize(
    "step", [0.3, 2.5, -0.5, 0.0, -1.0, float("nan"), float("inf")]
)
def test_grid_steps_rejects_steps_that_do_not_divide_one(step):
    with pytest.raises(ValueError, match="resolution must divide 1"):
        grid_steps(step, "resolution")


class TestVerifyReplay:
    def test_returns_the_largest_gap(self):
        replayed = {"m": {"a": 0.5, "b": 0.5}}
        data = {"m": {"a": 0.25, "b": 0.75}, "other": {"a": 1.0}}
        assert verify_replay(replayed, data, 0.25, "replay") == 0.25

    def test_a_missing_cell_counts_as_zero(self):
        replayed = {"m": {"a": 1.0}}
        data = {"m": {"a": 0.75, "b": 0.25}}
        assert verify_replay(replayed, data, 0.25, "replay") == 0.25

    def test_raises_above_the_bound(self):
        with pytest.raises(VerificationBug, match="replay misses the data by 0.5"):
            verify_replay({"m": {"a": 1.0}}, {"m": {"a": 0.5}}, 0.25, "replay")


def test_signed_heatmap_of_zeros_is_white():
    assert _color(0.0, 0.0, 0.0, signed=True) == "rgb(255,255,255)"
    assert _color(-1.0, -2.0, 1.0, signed=True) == "rgb(128,128,255)"
