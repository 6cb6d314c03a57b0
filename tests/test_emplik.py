"""Empirical-likelihood dual solvers and the scaled log-ratio statistic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elstable import emplik
from elstable import harness
from elstable.emplik import solve_lagrange, solve_lagrange_batch, x_n
from elstable.harness import (ExperimentConfig, el_confidence_region, pivotal_value,
                              theta_grid, whittle_point)
from elstable.processes import ma_polynomial_spec, simulate_linear
from elstable.scores import acf_score, estimating_function
import oracles
from oracles import el_statistic


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


def test_weights_are_a_probability_vector(rng):
    m = rng.standard_normal((50, 1))
    sol = solve_lagrange(m)
    assert sol.converged
    y = 1.0 + m[:, 0] * sol.phi[0]
    w = 1.0 / (50.0 * y)
    assert np.all(w > 0.0) and np.all(w < 1.0)
    assert abs(w.sum() - 1.0) < 1e-8
    assert abs(w @ m[:, 0]) < 1e-8


@pytest.mark.parametrize("shape", [(80, 2), (80,), (1, 1)])
def test_single_solver_takes_one_column_of_at_least_two_rows(rng, shape):
    # Every score has one parameter, so the solver takes an (n, 1) array with
    # n >= 2 and refuses anything else, an (n, 2) array included.
    with pytest.raises(ValueError):
        solve_lagrange(rng.standard_normal(shape))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 8),
       n=st.sampled_from([30, 300, 1001]))
def test_batch_agrees_with_single_solves(seed, size, n):
    # Shifted normal rows give hulls that hold and hulls that fail; one row
    # is all positive but for a single -1e-8 entry, so its hull nearly
    # degenerates.  Each row is solved on its own inside the batch: the EL
    # region search relies on a row's solution not depending on the rows
    # batched with it.
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((size, n)) + rng.uniform(-3.0, 3.0, (size, 1))
    near = rng.integers(size)
    rows[near] = np.abs(rows[near]) + 0.1
    rows[near, rng.integers(n)] = -1e-8
    batch = solve_lagrange_batch(rows)
    for b in range(size):
        single = solve_lagrange(rows[b][:, None])
        assert batch.converged[b] == single.converged
        assert batch.hull_ok[b] == single.hull_ok
        assert abs(batch.phi[b] - single.phi[0]) < 1e-9
        if single.converged:
            y = 1.0 + single.phi[0] * rows[b]
            assert abs(batch.log_ratio[b] - (-np.sum(np.log(y)))) < 1e-8
        alone = solve_lagrange_batch(rows[b:b + 1])
        for name in ("phi", "log_ratio", "iterations"):
            assert getattr(batch, name)[b:b + 1].tobytes() == \
                getattr(alone, name).tobytes(), name


def test_batch_flags_hull_failures():
    rows = np.array([[1.0, 2.0, 3.0], [-1.0, 2.0, -0.5], [0.0, 0.0, 0.0]])
    batch = solve_lagrange_batch(rows)
    assert list(batch.hull_ok) == [False, True, True]
    assert batch.log_ratio[0] == -np.inf
    assert batch.log_ratio[2] == 0.0  # identically-zero constraint


@pytest.mark.parametrize("kind", ["cauchy", "shifted", "hull-failures", "zero-rows",
                                  "iteration-cap"])
def test_batch_solver_equals_the_fresh_array_oracle(kind, monkeypatch):
    # The solver keeps one buffer for its iterations, reads the bracket off
    # each row's extremes and takes the log ratios of the rows that converge
    # in each iteration; every field equals the solver that allocated fresh
    # arrays throughout, bit for bit, on batches of 1 to 40 rows.  With the
    # cap cut to 3 steps most rows are left unconverged.
    if kind == "iteration-cap":
        monkeypatch.setattr(emplik, "_MAX_ITER", 3)
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(40):
        size, n = int(rng.integers(1, 41)), int(rng.choice([2, 3, 8, 50, 300]))
        if kind == "cauchy":
            rows = rng.standard_cauchy((size, n))
        else:
            rows = rng.normal(size=(size, n)) + rng.normal(size=(size, 1))
        if kind == "hull-failures":
            rows = np.abs(rows)
            rows[rng.random(rows.shape) < 0.5] *= -1e-3
        elif kind == "zero-rows":
            rows[rng.random(size) < 0.3] = 0.0
            rows[:, rng.random(n) < 0.2] = -0.0
        batch, oracle = solve_lagrange_batch(rows), oracles.solve_lagrange_batch_fresh(rows)
        for name in ("phi", "log_ratio", "converged", "hull_ok", "iterations"):
            assert getattr(batch, name).tobytes() == getattr(oracle, name).tobytes(), name


def test_log_ratio_is_nonpositive(rng):
    rows = rng.standard_normal((20, 40))
    batch = solve_lagrange_batch(rows)
    finite = np.isfinite(batch.log_ratio)
    assert np.all(batch.log_ratio[finite] < 1e-12)


# --------------------------------------------------------------------------
# the scaled statistic

def test_el_ratio_statistic_scaling(series_half):
    # stat = -2 (x_n^2 / n) log R with R = prod_t n w_t and the dual weights
    # w_t = 1 / (n (1 + phi m_t)), which sum to one: the region scan's
    # statistic at each probed point, rebuilt from the weights.
    score = acf_score(2)
    n = series_half.size
    grid = theta_grid(score, step=0.05, lo=-0.4, hi=0.6)
    scan = el_confidence_region(series_half, score, grid, 2.5, 1.5)
    for theta, stat in zip(scan.thetas, scan.stats):
        m = estimating_function(series_half, score, theta, 1.5)
        sol = solve_lagrange(m[:, None])
        if not sol.hull_ok[0]:
            assert stat == np.inf
            continue
        assert sol.converged[0]
        w = 1.0 / (n * (1.0 + sol.phi[0] * m))
        assert abs(w.sum() - 1.0) < 1e-8
        assert abs(stat - -2.0 * x_n(n, 1.5) ** 2 / n * np.sum(np.log(n * w))) < 1e-8


def test_el_ratio_scale_invariance(series_half):
    # The self-normalized periodogram removes the series scale entirely.
    score = acf_score(2)
    a = el_statistic(series_half, score, 0.05, 1.5)
    b = el_statistic(series_half * 731.0, score, 0.05, 1.5)
    assert abs(a - b) < 1e-8


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([50, 120, 300]),
       lag=st.integers(1, 3),
       theta=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_el_ratio_vanishes_at_the_plugin_root(seed, n, lag, theta):
    # The statistic is nonnegative on the whole domain and zero at the root
    # of the summed rows, where the weights are uniform.
    x = simulate_linear(ma_polynomial_spec(0.5), n, np.random.default_rng(seed))
    score = acf_score(lag)
    root = whittle_point(x, score, 1.5)
    assert el_statistic(x, score, root, 1.5) < 1e-10
    assert el_statistic(x, score, theta, 1.5) >= 0.0


def test_el_ratio_far_theta_is_rejected(series_half):
    # Far from the root the ratio collapses: the statistic dwarfs any
    # practical threshold (the Monte-Carlo thresholds are order 1-10).
    assert el_statistic(series_half, acf_score(2), 0.99, 1.5) > 20.0


def test_statistic_monotone_near_root(series_half):
    # The statistic grows as theta moves away from the plug-in root, which is
    # what makes the accepted region an interval in practice.
    score = acf_score(2)
    root = whittle_point(series_half, score, 1.5)
    offsets = np.array([0.02, 0.05, 0.1, 0.2])
    stats = [el_statistic(series_half, score, root + d, 1.5) for d in offsets]
    assert all(a < b for a, b in zip(stats, stats[1:]))


def test_statistic_approaches_its_quadratic_approximation():
    # A step of the limit theorem's proof (Owen 2001, sec. 3.15): at the
    # pivotal value -2 log R = n mbar^2 / mean(m^2) (1 + o_p(1)), so the
    # statistic over x_n^2 mbar^2 / mean(m^2) tends to 1.  Over 200 series of
    # design 1, each size in one stacked solve, the median gap at n = 3000 is
    # well under half the gap at n = 300 (0.009 against 0.025 at this seed).
    spec, score = ExperimentConfig().build_process(), acf_score(2)
    theta0 = pivotal_value(spec, score)
    rng = np.random.default_rng(20140214)
    gaps = []
    for n in (300, 3000):
        x = np.stack([simulate_linear(spec, n, rng) for _ in range(200)])
        a, b = harness._affine_rows(x, score, 1.5)
        m = a + theta0 * b
        batch = solve_lagrange_batch(m)
        assert batch.converged.all()
        stat = -2.0 * x_n(n, 1.5) ** 2 / n * batch.log_ratio
        quadratic = x_n(n, 1.5) ** 2 * m.mean(axis=1) ** 2 / (m ** 2).mean(axis=1)
        gaps.append(np.median(np.abs(stat / quadratic - 1.0)))
    assert gaps[1] < 0.5 * gaps[0]
