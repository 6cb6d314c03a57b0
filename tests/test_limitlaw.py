"""Curvature matrices, limit-series coefficients, and threshold sampling."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.stats import ks_2samp

from elstable.limitlaw import (LimitLawConfig, Quantile, compute_V_coeffs,
                               compute_V_coeffs_mv, compute_W, compute_W_mv,
                               mc_quantile, prepare_limit, sac_series_constant,
                               sample_limit_stat, sample_limit_stat_simplified,
                               sample_stable_ratio, scale_multipliers, tail_constant)
from elstable.processes import (normalized_transfer, simulate_linear,
                                transfer_matrix, vma_table_spec)
from elstable.scores import acf_score, coupling_var1_score, var1_score
from elstable.spectral import SmoothedTransfer


def flat_transfer(omega):
    return np.ones_like(np.asarray(omega, dtype=float))


# --------------------------------------------------------------------------
# constants

def test_tail_constant_closed_forms():
    assert abs(tail_constant(1.0) - 2.0 / math.pi) < 1e-14
    # (1 - a) / (Gamma(2 - a) cos(pi a / 2)) at a = 3/2 collapses to 1/sqrt(2 pi)
    assert abs(tail_constant(1.5) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-14
    with pytest.raises(ValueError):
        tail_constant(2.0)


def test_scale_multiplier_conventions():
    alpha = 1.5
    s, s0 = scale_multipliers(alpha, "davis-resnick")
    assert abs(s - tail_constant(alpha) ** (-1.0 / alpha)) < 1e-14
    assert abs(s0 - gamma_fn(1.0 - alpha / 2.0) ** (2.0 / alpha)) < 1e-14
    assert scale_multipliers(alpha, "unit") == (1.0, 1.0)
    assert scale_multipliers(alpha, (2.0, 3.0)) == (2.0, 3.0)
    with pytest.raises(ValueError):
        scale_multipliers(alpha, "classic")
    with pytest.raises(ValueError):
        scale_multipliers(alpha, (0.0, 1.0))


# --------------------------------------------------------------------------
# curvature matrix and series coefficients, flat transfer oracle

def test_curvature_flat_transfer_closed_form():
    # W = (1/2pi) integral (2 theta - 2 cos(l w))^2 * 2 dw = 8 theta^2 + 4.
    for theta in (0.0, 0.3):
        w = compute_W(acf_score(2), theta, flat_transfer)
        assert abs(w[0, 0] - (8.0 * theta * theta + 4.0)) < 1e-8


def test_series_coefficients_flat_transfer_closed_form():
    # c_t = (1/pi) integral (-2 cos(l w)) cos(t w) dw = -2 at t = l, else 0.
    coeffs = compute_V_coeffs(acf_score(2), 0.0, flat_transfer, truncation=10)
    assert coeffs.shape == (10, 1)
    assert abs(coeffs[1, 0] + 2.0) < 1e-8
    others = np.delete(coeffs[:, 0], 1)
    assert np.max(np.abs(others)) < 1e-8


def test_closure_constant_flat_transfer():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=flat_transfer, truncation=10)
    prepared = prepare_limit(config)
    assert abs(prepared["closure"] - 2.0) < 1e-8
    assert abs(prepared["w_inv"][0, 0] - 0.25) < 1e-8


def dense_series_coefficients(score, theta0, transfer, truncation, quad_points):
    """Oracle: the (T x N) cosine-matrix trapezoid rule."""
    grid = np.linspace(-np.pi, np.pi, quad_points + 1)
    weight = np.asarray(score.grad_inv(grid, np.atleast_1d(theta0))) * transfer(grid)
    cosines = np.cos(np.outer(np.arange(1, truncation + 1), grid))
    values = cosines[:, None, :] * weight[None, :, :]
    ends = 0.5 * (values[..., 0] + values[..., -1])
    return (grid[1] - grid[0]) * (values.sum(axis=-1) - ends) / np.pi


@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@pytest.mark.parametrize("truncation, quad_points", [(200, 4096), (100, 64)])
def test_series_coefficients_fft_matches_dense_trapezoid(spec_half, truncation,
                                                         quad_points):
    # The second case has more lags than grid points, so the lags alias.
    x = simulate_linear(spec_half, 300, np.random.default_rng(8))
    transfers = [SmoothedTransfer(x), lambda w: normalized_transfer(spec_half, w)]
    for transfer in transfers:
        for theta in (0.1168, -0.6):
            fast = compute_V_coeffs(acf_score(2), theta, transfer,
                                    truncation=truncation, quad_points=quad_points)
            dense = dense_series_coefficients(acf_score(2), theta, transfer,
                                              truncation, quad_points)
            np.testing.assert_allclose(fast, dense, rtol=0.0, atol=1e-13)


def test_curvature_quadrature_check_with_smoothed_transfer(spec_half):
    # A smoothed transfer of n = 10 000 has cosine terms up to lag 9999,
    # which the 4096-point grid aliases; at n = 300 the rule converges.
    for n, warns in ((300, False), (10_000, True)):
        x = simulate_linear(spec_half, n, np.random.default_rng(n))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compute_W(acf_score(2), 0.1168, SmoothedTransfer(x))
        assert any("quadrature for W" in str(w.message) for w in caught) == warns


def test_curvature_matches_half_resolution(spec_half):
    transfer = lambda w: normalized_transfer(spec_half, w)
    w1 = compute_W(acf_score(2), 0.1168, transfer, quad_points=4096)
    w2 = compute_W(acf_score(2), 0.1168, transfer, quad_points=2048)
    assert abs(w1[0, 0] - w2[0, 0]) < 1e-6 * abs(w1[0, 0])


def test_series_coefficients_truncation_stability(spec_half):
    transfer = lambda w: normalized_transfer(spec_half, w)
    config = dict(score=acf_score(2), theta0=np.array([0.1168]), alpha=1.5,
                  transfer=transfer)
    k200 = prepare_limit(LimitLawConfig(truncation=200, **config))["closure"]
    k400 = prepare_limit(LimitLawConfig(truncation=400, **config))["closure"]
    assert abs(k200 - k400) < 5e-3 * k400


def test_dimension_one_matrix_path_matches_scalar(spec_half):
    # A 1x1 coefficient stack and the coupling score with a single slot must
    # reproduce the scalar curvature and mixing coefficients.
    from elstable.processes import StableParams, VectorProcessSpec

    vspec = VectorProcessSpec(coeffs=spec_half.psi[:, None, None],
                              noise=StableParams(1.5))
    score_mv = var1_score([["theta"]])
    score_sc = acf_score(1)
    theta0 = 0.3603
    psi_fn = lambda w: transfer_matrix(vspec, np.atleast_1d(w))

    def transfer_sc(w):
        return normalized_transfer(spec_half, w)

    def transfer_mv(w):
        psi = psi_fn(w)
        g = (psi @ np.conj(np.swapaxes(psi, -1, -2)))[:, 0, 0].real
        return g / np.sum(spec_half.psi ** 2)

    w_mv = compute_W_mv(score_mv, theta0, lambda w: transfer_mv(w)[:, None, None])
    w_sc = compute_W(score_sc, theta0, transfer_sc)
    assert abs(w_mv[0, 0] - w_sc[0, 0]) < 1e-8 * abs(w_sc[0, 0])

    c_mv = compute_V_coeffs_mv(score_mv, theta0,
                               lambda w: psi_fn(w) / math.sqrt(np.sum(spec_half.psi ** 2)),
                               truncation=50)
    c_sc = compute_V_coeffs(score_sc, theta0, transfer_sc, truncation=50)
    np.testing.assert_allclose(c_mv[:, 0, 0, 0], c_sc[:, 0], atol=1e-8)


# --------------------------------------------------------------------------
# sampling the limit statistic

def test_limit_draws_reproducible_and_positive():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=flat_transfer, truncation=10, reps=2000)
    a = sample_limit_stat(config, np.random.default_rng(42))
    b = sample_limit_stat(config, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(np.isfinite(a))


def test_limit_law_is_heavy_tailed():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=flat_transfer, truncation=10, reps=50_000)
    draws = sample_limit_stat(config, np.random.default_rng(7))
    q90, q99 = np.quantile(draws, [0.9, 0.99])
    assert q99 > 2.4 * q90


def test_simplified_sampler_matches_series_sampler():
    # For one parameter the weighted SaS series collapses to a single scaled
    # draw; the two samplers must agree in distribution.
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.1]), alpha=1.5,
                            transfer=flat_transfer, truncation=30, reps=20_000)
    full = sample_limit_stat(config, np.random.default_rng(1))
    short = sample_limit_stat_simplified(config, np.random.default_rng(2))
    stat = ks_2samp(full, short)
    assert stat.pvalue > 0.01


def test_scale_convention_is_a_pure_ratio_rescale():
    # Multiplying (s, s0) by (c, 1) scales every ratio draw by c exactly.
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    base = sample_stable_ratio(1.9, 5000, rng1, "davis-resnick")
    s, s0 = scale_multipliers(1.9, "davis-resnick")
    scaled = sample_stable_ratio(1.9, 5000, rng2, (1.6 * s, s0))
    np.testing.assert_allclose(scaled, 1.6 * base, rtol=1e-12)


def test_mc_quantile_reports_uncertainty():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=flat_transfer, truncation=10, reps=5000)
    q = mc_quantile(config, 0.9, np.random.default_rng(3))
    assert isinstance(q, Quantile)
    assert q.reps == 5000 and q.stderr > 0.0 and q.value > 0.0
    with pytest.raises(ValueError):
        mc_quantile(config, 1.0, np.random.default_rng(3))


def test_mv_general_law_matches_simplified_closure():
    # Independent entries keep the series a single weighted SaS sum, so the
    # closure shortcut stays exact for the two-dimensional coupling design.
    vspec = vma_table_spec(0.3)
    config = LimitLawConfig(score=coupling_var1_score(), theta0=np.array([0.1755]),
                            alpha=1.5, psi_matrix=lambda w: transfer_matrix(vspec, w),
                            truncation=60, reps=10_000)
    full = sample_limit_stat(config, np.random.default_rng(5))
    short = sample_limit_stat_simplified(config, np.random.default_rng(6))
    stat = ks_2samp(full, short)
    assert stat.pvalue > 0.01


def test_common_dependence_changes_the_mixing():
    vspec = vma_table_spec(0.3)
    kwargs = dict(score=coupling_var1_score(), theta0=np.array([0.1755]), alpha=1.5,
                  psi_matrix=lambda w: transfer_matrix(vspec, w), truncation=40)
    independent = prepare_limit(LimitLawConfig(dependence="independent", **kwargs))
    common = prepare_limit(LimitLawConfig(dependence="common", **kwargs))
    assert independent["mixing"].shape[0] == 4 * common["mixing"].shape[0]
    assert not np.isclose(independent["closure"], common["closure"])


def test_limit_config_validation():
    with pytest.raises(ValueError):
        LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=2.0,
                       transfer=flat_transfer)
    with pytest.raises(ValueError):
        LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5)
    with pytest.raises(ValueError):
        LimitLawConfig(score=coupling_var1_score(), theta0=np.array([0.1]),
                       alpha=1.5, transfer=flat_transfer)
    with pytest.raises(ValueError):
        LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                       transfer=flat_transfer, dependence="coupled")


# --------------------------------------------------------------------------
# the competing interval's limit scale

def test_sac_constant_white_noise_is_one():
    rho = lambda k: 1.0 if k == 0 else 0.0
    assert abs(sac_series_constant(rho, 2, 1.5) - 1.0) < 1e-14


def test_sac_constant_accepts_array_and_matches_direct_sum(spec_half):
    from elstable.processes import theoretical_acf

    values = np.array([theoretical_acf(spec_half, k) for k in range(400)])
    by_array = sac_series_constant(values, 2, 1.5, truncation=200)
    direct = sum(abs(values[2 + j] + values[abs(2 - j)]
                     - 2.0 * values[j] * values[2]) ** 1.5
                 for j in range(1, 201)) ** (1.0 / 1.5)
    assert abs(by_array - direct) < 1e-12

