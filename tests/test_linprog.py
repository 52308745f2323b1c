import numpy as np
import pytest

from aggchoice import NoConvergence, linprog
from aggchoice.linprog import solve_feasibility


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
    monkeypatch.setattr(linprog, "_phase_one", lambda a, b: (np.array(point), 0.0))
    with pytest.raises(NoConvergence):
        solve_feasibility(np.array([[1.0, 1.0]]), np.array([1.0]), tol=1e-9)


def test_point_check_uses_callers_tolerance(monkeypatch):
    monkeypatch.setattr(
        linprog, "_phase_one", lambda a, b: (np.array([1.0 + 1e-8, 0.0]), 0.0)
    )
    result = solve_feasibility(np.array([[1.0, 1.0]]), np.array([1.0]), tol=1e-7)
    assert result.feasible
