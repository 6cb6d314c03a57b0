"""Empirical-likelihood dual solvers and the scaled log-ratio statistic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elstable.emplik import (ELResult, LagrangeSolution, log_el_ratio,
                             solve_lagrange, solve_lagrange_batch, x_n)
from elstable.errors import SolverError
from elstable.processes import ma_polynomial_spec, simulate_linear
from elstable.scores import acf_score


# --------------------------------------------------------------------------
# normalizing rate

def test_x_n_formula_and_validation():
    assert abs(x_n(8, 1.0) - 8.0 / math.log(8.0)) < 1e-12
    assert abs(x_n(300, 1.5) - (300.0 / math.log(300.0)) ** (2.0 / 3.0)) < 1e-12
    with pytest.raises(ValueError):
        x_n(1, 1.5)
    with pytest.raises(ValueError):
        x_n(100, 2.0)
    with pytest.raises(ValueError):
        x_n(100, 0.9)


# --------------------------------------------------------------------------
# hand-checked dual solutions

def test_two_point_dual_solution_by_hand():
    # m = (-1, 2): sum m/(1 + phi m) = 0 gives phi = 1/4 and weights (2/3, 1/3).
    m = np.array([[-1.0], [2.0]])
    sol = solve_lagrange(m)
    assert sol.converged and sol.hull_ok
    assert abs(sol.phi[0] - 0.25) < 1e-10
    y = 1.0 + m[:, 0] * sol.phi[0]
    weights = 1.0 / (2.0 * y)
    np.testing.assert_allclose(weights, [2.0 / 3.0, 1.0 / 3.0], atol=1e-10)
    assert abs(weights @ m[:, 0]) < 1e-10


def test_zero_rows_mean_equal_weights():
    sol = solve_lagrange(np.zeros((5, 1)))
    assert sol.converged and sol.hull_ok and sol.phi[0] == 0.0


def test_hull_failure_detected_one_dimension():
    sol = solve_lagrange(np.array([[0.5], [1.5], [2.0]]))
    assert not sol.hull_ok


def test_hull_failure_detected_two_dimensions():
    # all rows in the open right half-plane: zero is outside the hull
    rng = np.random.default_rng(4)
    m = np.column_stack([rng.random(20) + 0.1, rng.standard_normal(20)])
    sol = solve_lagrange(m)
    assert not sol.hull_ok


def test_weights_are_a_probability_vector(rng):
    m = rng.standard_normal((50, 1))
    sol = solve_lagrange(m)
    assert sol.converged
    y = 1.0 + m[:, 0] * sol.phi[0]
    w = 1.0 / (50.0 * y)
    assert np.all(w > 0.0) and np.all(w < 1.0)
    assert abs(w.sum() - 1.0) < 1e-8
    assert abs(w @ m[:, 0]) < 1e-8


def test_newton_path_two_parameters(rng):
    m = rng.standard_normal((80, 2))
    sol = solve_lagrange(m)
    assert sol.converged and sol.hull_ok
    y = 1.0 + m @ sol.phi
    kkt = m.T @ (1.0 / y) / 80.0
    assert np.max(np.abs(kkt)) < 1e-10


def test_batch_agrees_with_single_solves(rng):
    rows = rng.standard_normal((12, 30))
    batch = solve_lagrange_batch(rows)
    for b in range(12):
        single = solve_lagrange(rows[b][:, None])
        assert batch.converged[b] == single.converged
        assert abs(batch.phi[b] - single.phi[0]) < 1e-9
        y = 1.0 + single.phi[0] * rows[b]
        assert abs(batch.log_ratio[b] - (-np.sum(np.log(y)))) < 1e-8


def test_batch_flags_hull_failures():
    rows = np.array([[1.0, 2.0, 3.0], [-1.0, 2.0, -0.5], [0.0, 0.0, 0.0]])
    batch = solve_lagrange_batch(rows)
    assert list(batch.hull_ok) == [False, True, True]
    assert batch.log_ratio[0] == -np.inf
    assert batch.log_ratio[2] == 0.0  # identically-zero constraint


def test_log_ratio_is_nonpositive(rng):
    rows = rng.standard_normal((20, 40))
    batch = solve_lagrange_batch(rows)
    finite = np.isfinite(batch.log_ratio)
    assert np.all(batch.log_ratio[finite] < 1e-12)


def test_warm_start_outside_bracket_is_ignored(rng):
    m = rng.standard_normal(25)
    base = solve_lagrange_batch(m[None, :])
    warm = solve_lagrange_batch(m[None, :], phi0=np.array([1e12]))
    assert abs(base.phi[0] - warm.phi[0]) < 1e-9


# --------------------------------------------------------------------------
# the scaled statistic

def test_el_ratio_statistic_scaling(series_half):
    score = acf_score(2)
    result = log_el_ratio(series_half, score, 0.1, 1.5)
    assert isinstance(result, ELResult)
    n = series_half.size
    expect = -2.0 * x_n(n, 1.5) ** 2 / n * result.log_ratio
    assert abs(result.statistic - expect) < 1e-12
    assert result.converged and result.hull_ok
    assert result.weights.shape == (n,)
    assert abs(result.weights.sum() - 1.0) < 1e-8


def test_el_ratio_scale_invariance(series_half):
    # The self-normalized periodogram removes the series scale entirely.
    score = acf_score(2)
    a = log_el_ratio(series_half, score, 0.05, 1.5)
    b = log_el_ratio(series_half * 731.0, score, 0.05, 1.5)
    assert abs(a.log_ratio - b.log_ratio) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([50, 120, 300]),
       lag=st.integers(1, 3),
       theta=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_el_ratio_vanishes_at_the_plugin_root(seed, n, lag, theta):
    # The statistic is nonnegative on the whole domain and zero at the root
    # of the summed rows, where the weights are uniform.
    from elstable.harness import whittle_point

    x = simulate_linear(ma_polynomial_spec(0.5), n, np.random.default_rng(seed))
    score = acf_score(lag)
    root = whittle_point(x, score, 1.5)
    result = log_el_ratio(x, score, root, 1.5)
    assert result.statistic < 1e-10
    assert np.max(np.abs(result.phi)) < 1e-6
    assert log_el_ratio(x, score, theta, 1.5).statistic >= 0.0


def test_el_ratio_far_theta_is_rejected(series_half):
    # Far from the root the ratio collapses: the statistic dwarfs any
    # practical threshold (the Monte-Carlo thresholds are order 1-10).
    score = acf_score(2)
    result = log_el_ratio(series_half, score, 0.99, 1.5)
    assert result.statistic > 20.0


def test_solver_error_carries_diagnostics():
    err = SolverError("no convergence", residual=0.5, iterations=100)
    assert err.residual == 0.5 and err.iterations == 100
    assert isinstance(err, RuntimeError)


def test_statistic_monotone_near_root(series_half):
    # The statistic grows as theta moves away from the plug-in root, which is
    # what makes the accepted region an interval in practice.
    from elstable.harness import whittle_point

    score = acf_score(2)
    root = whittle_point(series_half, score, 1.5)
    offsets = np.array([0.02, 0.05, 0.1, 0.2])
    stats = [log_el_ratio(series_half, score, root + d, 1.5).statistic
             for d in offsets]
    assert all(a < b for a, b in zip(stats, stats[1:]))
