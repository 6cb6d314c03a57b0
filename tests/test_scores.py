"""Score families, gradient checks, and the estimating-function builders."""

import numpy as np
import pytest

from elstable.errors import DomainError, NumericalError
from elstable.scores import (ScoreFunction, acf_score, check_gradient,
                             coupling_var1_score, estimating_function,
                             estimating_function_mv, score_from_config, var1_score)
from elstable.spectral import fourier_frequencies, sample_acf, self_normalized_grid


# --------------------------------------------------------------------------
# the autocorrelation score

def test_acf_score_closed_forms():
    score = acf_score(2)
    omega = np.linspace(-np.pi, np.pi, 21)
    theta = 0.3
    f = score.f(omega, theta)
    expect = 1.0 / (1.0 - 2.0 * theta * np.cos(2.0 * omega) + theta * theta)
    np.testing.assert_allclose(f, expect, rtol=1e-14)
    grad = score.grad_inv(omega, theta)
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


def test_gradient_self_check_catches_wrong_derivative():
    omega_fn = lambda omega, theta: 1.0 / (1.0 + 0.0 * np.asarray(omega))

    def bad_grad(omega, theta):
        return np.ones(np.asarray(omega).size)  # derivative of 1/f is 0

    bad = ScoreFunction(name="broken", dim=1, domain=(-1.0, 1.0),
                        f=omega_fn, grad_inv=bad_grad)
    with pytest.raises(NumericalError):
        check_gradient(bad)


def test_gradient_check_passes_for_builtin_scores():
    check_gradient(acf_score(1), rtol=1e-7)
    check_gradient(coupling_var1_score(), rtol=1e-6)


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
    with pytest.raises(DomainError):
        score.f(np.array([0.1]), 1.0)


def test_var1_dimension_one_equals_acf_lag_one():
    # (1 - theta e^{i omega})^-1 (...)^-* collapses to |1 - theta e^{i omega}|^-2.
    mv = var1_score([["theta"]])
    sc = acf_score(1)
    omega = np.linspace(-np.pi, np.pi, 17)
    theta = 0.4
    f_mv = mv.f(omega, theta)[:, 0, 0]
    np.testing.assert_allclose(f_mv.real, sc.f(omega, theta), rtol=1e-12)
    np.testing.assert_allclose(f_mv.imag, 0.0, atol=1e-12)
    g_mv = mv.grad_inv(omega, theta)
    assert g_mv.shape == (omega.size, 1, 1)
    np.testing.assert_allclose(g_mv[:, 0, 0].real, sc.grad_inv(omega, theta), rtol=1e-12)


def test_coupling_score_shape():
    score = coupling_var1_score()
    assert (score.dim, score.is_matrix) == (2, True)
    f = score.f(np.array([0.0]), 0.2)
    b = np.array([[0.5, 0.2], [0.4, 0.2]])
    inv = np.linalg.inv(np.eye(2) - b)
    np.testing.assert_allclose(f[0], inv @ inv.conj().T, atol=1e-12)


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
