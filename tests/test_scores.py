"""Score families, gradient checks, and the estimating-function builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elstable import harness
from elstable.errors import DomainError
from elstable.processes import simulate_vector_linear, vma_table_spec
from elstable.scores import (ScoreFunction, acf_score, coupling_var1_score, estimating_function,
                             estimating_function_mv, score_from_config, var1_score)
from elstable.spectral import (fourier_frequencies, periodogram_matrix_grid, sample_acf,
                               self_normalized_grid)
from oracles import gradient


# --------------------------------------------------------------------------
# the densities the scores stand for, written out, and the gradient check

def acf_inverse_density(lag):
    """``1/f = |1 - theta e^(i lag omega)|^2`` of the lag-``lag`` score."""
    return lambda omega, theta: np.abs(1.0 - theta * np.exp(1j * lag * omega)) ** 2


def var1_density(template):
    """``f = (I - B e^(i omega))^-1 (...)^-*`` with ``theta`` in ``B``'s
    marked cells."""
    def f(omega, theta):
        b = np.array([[theta if cell == "theta" else cell for cell in row]
                      for row in template], dtype=float)
        a = np.eye(len(b)) - np.exp(1j * omega)[:, None, None] * b
        inv = np.linalg.inv(a)
        return inv @ np.conj(np.swapaxes(inv, -1, -2))
    return f


def check_gradient(score, inverse_density, theta, step=1e-5, rtol=1e-6):
    """Assert that the gradient ``intercept + theta slope`` matches central
    finite differences of ``inverse_density`` at 100 random frequencies, to
    ``rtol`` of its scale; theta must be a valid value of the density."""
    score.check(theta)
    omega = (np.random.default_rng(0).random(100) * 2.0 - 1.0) * np.pi
    grad = np.asarray(gradient(score, omega, theta))
    diff = (inverse_density(omega, theta + step)
            - inverse_density(omega, theta - step)) / (2.0 * step)
    np.testing.assert_allclose(diff, grad, rtol=0.0,
                               atol=rtol * (np.max(np.abs(grad)) + 1.0))


def matrix_inverse(density):
    return lambda omega, theta: np.linalg.inv(density(omega, theta))


def test_gradient_check_passes_for_builtin_scores():
    # each shipped score against its density; the off-zero template is
    # stable at 0.3 (radius 0.548) but not near 0, so it is checked at 0.3.
    # The acf gradient is a polynomial in theta, so it meets a tighter bound.
    for score, inverse_density, theta, rtol in [
            (acf_score(1), acf_inverse_density(1), 0.3, 1e-7),
            (acf_score(2), acf_inverse_density(2), -0.6, 1e-7),
            (coupling_var1_score(),
             matrix_inverse(var1_density([[0.5, "theta"], [0.4, 0.2]])), 0.2, 1e-6),
            (var1_score([[1.02, "theta"], [-1.0, 0.0]]),
             matrix_inverse(var1_density([[1.02, "theta"], [-1.0, 0.0]])), 0.3, 1e-6),
            (var1_score([["theta", 0.1], [0.2, "theta"]]),
             matrix_inverse(var1_density([["theta", 0.1], [0.2, "theta"]])), -0.4, 1e-6)]:
        check_gradient(score, inverse_density, theta, rtol=rtol)


def test_gradient_self_check_catches_wrong_derivative():
    def bad_intercept(omega):
        return np.ones(np.asarray(omega).size)  # the derivative of a flat 1/f is 0

    bad = ScoreFunction(name="broken", dim=1, domain=(-1.0, 1.0), intercept=bad_intercept,
                        slope=0.0)
    with pytest.raises(AssertionError):
        check_gradient(bad, lambda omega, theta: np.ones_like(omega), 0.1)
    # a true gradient checked against another score's density is refused too
    with pytest.raises(AssertionError):
        check_gradient(acf_score(2), acf_inverse_density(1), 0.1)


# --------------------------------------------------------------------------
# the autocorrelation score

def test_acf_score_closed_forms():
    score = acf_score(2)
    omega = np.linspace(-np.pi, np.pi, 21)
    theta = 0.3
    grad = gradient(score, omega, theta)
    np.testing.assert_allclose(grad, -2.0 * np.cos(2.0 * omega) + 2.0 * theta,
                               rtol=1e-14)


def test_acf_score_metadata_and_domain():
    score = acf_score(3)
    assert (score.dim, score.is_matrix) == (1, False)
    assert score.name == "acf_lag3"
    assert score.domain == (-1.0, 1.0)
    # a scalar or any one-element array is the one parameter, as a float
    for theta in (0.25, [0.25], np.array([[0.25]])):
        checked = score.check_theta(theta)
        assert type(checked) is float and checked == 0.25
    with pytest.raises(DomainError, match=r"^theta=1\.0 outside open interval \(-1\.0, 1\.0\)"):
        score.check_theta(1.0)
    with pytest.raises(DomainError, match="takes one parameter"):
        score.check_theta([0.1, 0.2])
    with pytest.raises(ValueError):
        acf_score(0)


# --------------------------------------------------------------------------
# the matrix score family

def test_var1_template_parsing_errors():
    with pytest.raises(ValueError):
        var1_score([[0.5, 0.2], [0.4, 0.2]])        # no parameter slot
    with pytest.raises(ValueError):
        var1_score([[0.5, "theta1"], [0.4, 0.2]])    # one parameter only
    with pytest.raises(ValueError):
        var1_score([[0.5, "theta0"], [0.4, 0.2]])    # its label is "theta"
    with pytest.raises(ValueError):
        var1_score([[0.5, "sigma"], [0.4, 0.2]])     # unknown label
    with pytest.raises(ValueError):
        var1_score([[0.5, "theta", 0.1]])            # not square


def test_var1_stability_domain_enforced():
    score = var1_score([["theta"]])
    with pytest.raises(DomainError, match="spectral radius 1.0000 >= 1 at theta=1.0"):
        score.check(1.0)
    # building a score evaluates nothing: a template unstable near theta = 0
    # is a valid score where its coupling matrix is stable
    off_zero = var1_score([[1.02, "theta"], [-1.0, 0.0]])
    with pytest.raises(DomainError, match="spectral radius 1.0200 >= 1 at theta=0.0"):
        off_zero.check(0.0)
    off_zero.check(0.3)
    assert np.all(np.isfinite(gradient(off_zero, np.array([0.1]), 0.3)))


def test_var1_dimension_one_equals_acf_lag_one():
    # (1 - theta e^{i omega})^-1 (...)^-* collapses to |1 - theta e^{i omega}|^-2.
    mv = var1_score([["theta"]])
    sc = acf_score(1)
    omega = np.linspace(-np.pi, np.pi, 17)
    theta = 0.4
    g_mv = gradient(mv, omega, theta)
    assert g_mv.shape == (omega.size, 1, 1)
    np.testing.assert_allclose(g_mv[:, 0, 0].real, gradient(sc, omega, theta), rtol=1e-12)


def test_coupling_score_shape():
    # at omega = 0 the gradient of (I - B)' (I - B) is -(E' (I - B) + (I - B)' E),
    # with E the 0/1 mask of the theta cell
    score = coupling_var1_score()
    assert (score.dim, score.is_matrix) == (2, True)
    grad = gradient(score, np.array([0.0]), 0.2)
    assert grad.shape == (1, 2, 2)
    a = np.eye(2) - np.array([[0.5, 0.2], [0.4, 0.2]])
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(grad[0], -(e.T @ a + a.T @ e), atol=1e-12)


def test_score_from_config_dispatch():
    assert score_from_config({"name": "acf_lag", "lag": 4}).name == "acf_lag4"
    mv = score_from_config({"name": "var1", "template": [[0.5, "theta"], [0.4, 0.2]]})
    assert mv.dim == 2
    with pytest.raises(ValueError):
        score_from_config({"name": "whittle"})


# --------------------------------------------------------------------------
# estimating-function builders

def test_estimating_function_closed_form(series_half):
    # rows are (-2 cos(l lambda_t) + 2 theta) * I_tilde(lambda_t).
    score = acf_score(2)
    theta = 0.25
    rows = estimating_function(series_half, score, theta, 1.5)
    values = self_normalized_grid(series_half)
    freqs = fourier_frequencies(series_half.size)
    expect = (-2.0 * np.cos(2.0 * freqs) + 2.0 * theta) * values
    np.testing.assert_allclose(rows, expect, rtol=1e-12)
    assert rows.shape == series_half.shape
    # a stack of series gives one row of values per series
    stack = np.stack([series_half, series_half[::-1]])
    stacked = estimating_function(stack, score, theta, 1.5)
    assert stacked.shape == stack.shape
    assert stacked[0].tobytes() == rows.tobytes()


def test_estimating_function_mean_has_acf_root(series_half):
    # Grid orthogonality turns the averaged rows into an affine function of
    # theta with root rho_hat(l) + rho_hat(n - l); checked against the ACF.
    score = acf_score(2)
    n = series_half.size
    root = sample_acf(series_half, 2) + sample_acf(series_half, n - 2)
    rows = estimating_function(series_half, score, root, 1.5)
    assert abs(rows.mean()) < 1e-10


def test_estimating_function_rejects_mismatched_kinds(series_half, rng):
    with pytest.raises(ValueError):
        estimating_function(series_half, coupling_var1_score(), 0.1, 1.5)
    with pytest.raises(ValueError):
        estimating_function(series_half, acf_score(2), 0.1, 2.5)


def test_estimating_function_mv_real_and_shaped(rng):
    x = rng.standard_normal((48, 2))
    rows = estimating_function_mv(x, coupling_var1_score(), 0.1, 1.5)
    assert rows.shape == (48,)
    assert rows.dtype == np.float64


def test_estimating_function_mv_dimension_one_reduction(rng):
    # In one dimension the trace form reduces to the scalar rows up to the
    # periodogram normalization, which is constant across frequencies.
    x = rng.standard_t(df=3, size=40)
    alpha = 1.5
    mv_rows = estimating_function_mv(x[:, None], var1_score([["theta"]]), 0.3, alpha)
    sc_rows = estimating_function(x, acf_score(1), 0.3, alpha)
    gamma2 = x.size ** (-2.0 / alpha) * float(x @ x)
    np.testing.assert_allclose(mv_rows, gamma2 * sc_rows, atol=1e-10)


# --------------------------------------------------------------------------
# the rows are affine in theta by construction

def check_affine_rows(x, score, theta, builder):
    """Assert that the rows at ``theta`` are ``a + theta b`` for the
    ``(a, b)`` the harness takes, with ``a`` the rows at 0 to the bit and a
    non-negative slope ``b``."""
    a, b = harness._affine_rows(x, score, 1.5)
    rows = builder(x, score, theta, 1.5)
    np.testing.assert_allclose(a + theta * b, rows, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(rows)))
    assert a.tobytes() == builder(x, score, 0.0, 1.5).tobytes()
    assert np.all(b >= 0.0)


@settings(max_examples=40, deadline=None)
@given(theta=st.floats(-0.99, 0.99), lag=st.integers(1, 3))
def test_acf_rows_are_affine_in_theta(series_half, theta, lag):
    check_affine_rows(series_half, acf_score(lag), theta, estimating_function)


VAR1_TEMPLATES = {
    # template and an interval of theta where B(theta) is stable
    "shipped": ([[0.5, "theta"], [0.4, 0.2]], (-0.9, 0.9)),
    "off-zero": ([[1.02, "theta"], [-1.0, 0.0]], (0.03, 0.99)),
    "two-cells": ([["theta", 0.1], [0.2, "theta"]], (-0.85, 0.85)),
}


@pytest.fixture(scope="module")
def vector_series():
    return simulate_vector_linear(vma_table_spec(0.3), 120, np.random.default_rng(5))


@pytest.mark.parametrize("name", sorted(VAR1_TEMPLATES))
@settings(max_examples=15, deadline=None)
@given(share=st.floats(0.0, 1.0))
def test_var1_rows_are_affine_in_theta(vector_series, name, share):
    template, (lo, hi) = VAR1_TEMPLATES[name]
    score = var1_score(template)
    theta = lo + share * (hi - lo)
    score.check(theta)  # a stable coupling value
    mask = np.array([[cell == "theta" for cell in row] for row in template], dtype=float)
    assert np.array_equal(score.slope, 2.0 * mask.T @ mask)
    check_affine_rows(vector_series, score, theta, estimating_function_mv)


@pytest.mark.parametrize("name", sorted(VAR1_TEMPLATES))
@pytest.mark.parametrize("n", [24, 300])
def test_stacked_vector_rows_equal_each_series_alone(name, n):
    # A stack of vector series takes one periodogram and one rows call, and
    # each series gets bitwise what it gets alone, with one alpha or one
    # per series; the two-cells template has no zero cell in its gradient,
    # where the order of the trace's products shows.
    rng = np.random.default_rng(n)
    score = var1_score(VAR1_TEMPLATES[name][0])
    x = np.stack([simulate_vector_linear(vma_table_spec(0.3), n, rng) for _ in range(6)])
    for alpha in (1.5, np.linspace(1.1, 1.9, len(x))):
        alphas = np.broadcast_to(alpha, len(x)).tolist()
        periodogram = periodogram_matrix_grid(x, alpha)
        rows = estimating_function_mv(x, score, 0.2, alpha)
        a, b = harness._affine_rows(x, score, alpha)
        assert periodogram.shape == (6, n, 2, 2) and rows.shape == a.shape == (6, n)
        for i, value in enumerate(alphas):
            alone = periodogram_matrix_grid(x[i], value)
            assert periodogram[i].tobytes() == alone.tobytes()
            assert rows[i].tobytes() == estimating_function_mv(x[i], score, 0.2, value).tobytes()
            one_a, one_b = harness._affine_rows(x[i], score, value)
            assert a[i].tobytes() == one_a.tobytes() and b[i].tobytes() == one_b.tobytes()
    with pytest.raises(ValueError, match="vector series must have shape"):
        periodogram_matrix_grid(x[0, :, 0], 1.5)
    with pytest.raises(ValueError, match="vector series must have shape"):
        estimating_function_mv(x[0, :, 0], score, 0.2, 1.5)
