"""Curvature matrices, limit-series coefficients, and threshold sampling."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn
from scipy.stats import ks_2samp

import elstable.limitlaw
from elstable.harness import ExperimentConfig, limit_law, pivotal_value

from elstable.limitlaw import (LimitLawConfig, Quantile, _f_matrix, _uniform_grid,
                               compute_V_coeffs, compute_V_coeffs_mv, compute_W,
                               compute_W_mv, mc_quantile, prepare_limit, ratio_quantiles,
                               sac_series_constant, sample_limit_stat,
                               sample_limit_stat_simplified, sample_stable_ratio,
                               scale_multipliers, tail_constant)
from elstable.processes import (ma_polynomial_spec, simulate_linear, theoretical_acf,
                                transfer_matrix, vma_table_spec)
from elstable.scores import ScoreFunction, acf_score, coupling_var1_score, var1_score
from elstable.spectral import SmoothedTransfer
from oracles import normalized_transfer


def flat_transfer(omega):
    return np.ones_like(np.asarray(omega, dtype=float))


FLAT = [1.0]  # the flat transfer's cosine coefficients: r_0 = 1, no others


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
    assert coeffs.shape == (10,)
    assert abs(coeffs[1] + 2.0) < 1e-8
    others = np.delete(coeffs, 1)
    assert np.max(np.abs(others)) < 1e-8


def test_closure_constant_flat_transfer():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=FLAT, truncation=10)
    prepared = prepare_limit(config)
    assert abs(prepared["closure"] - 2.0) < 1e-8
    assert abs(prepared["w_inv"] - 0.25) < 1e-8


def dense_series_coefficients(score, theta0, transfer, truncation, quad_points):
    """Oracle: the (T x N) cosine-matrix trapezoid rule."""
    grid = np.linspace(-np.pi, np.pi, quad_points + 1)
    weight = np.asarray(score.grad_inv(grid, theta0)) * transfer(grid)
    cosines = np.cos(np.outer(np.arange(1, truncation + 1), grid))
    values = cosines * weight
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


def exact_coeffs(spec):
    """The cosine coefficients of ``spec``'s normalized transfer: its acf."""
    return np.array([theoretical_acf(spec, h) for h in range(spec.order + 1)])


def _closed_form_cases(spec_half):
    """(name, coefficients handed to the law, grid oracle of them, truncation, N)."""
    short = SmoothedTransfer(simulate_linear(spec_half, 300, np.random.default_rng(300)))
    long = SmoothedTransfer(simulate_linear(spec_half, 10_000,
                                            np.random.default_rng(10_000)))
    exact = lambda w: normalized_transfer(spec_half, w)
    return [("smoothed n=300", short.coeffs, short, 200, 4096),
            ("smoothed n=10000, aliased", long.coeffs, long, 200, 4096),
            ("exact MA(100) coefficients", exact_coeffs(spec_half), exact, 200, 4096),
            ("flat", FLAT, flat_transfer, 200, 4096),
            ("T=100 > N=64, lags alias", short.coeffs, short, 100, 64),
            ("odd N, grids not nested", short.coeffs, short, 200, 4095)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_closed_form_limit_law_matches_the_grid_rule(spec_half):
    # prepare_limit sums cosine coefficients; compute_W and compute_V_coeffs
    # run the trapezoid rule on the grid.  They are the same sums.
    for name, transfer, oracle, truncation, points in _closed_form_cases(spec_half):
        for lag, theta in ((2, 0.1168), (2, -0.6), (1, 0.36), (3, 0.9)):
            score = acf_score(lag)
            prepared = prepare_limit(LimitLawConfig(
                score=score, theta0=np.array([theta]), alpha=1.5, transfer=transfer,
                truncation=truncation, quad_points=points))
            w = compute_W(score, theta, oracle, points)
            coeffs = compute_V_coeffs(score, theta, oracle, truncation, points)
            assert abs(prepared["w"] - w[0, 0]) <= 1e-12 * w[0, 0], name
            np.testing.assert_allclose(prepared["coeffs"], coeffs, rtol=0.0,
                                       atol=1e-12 * np.abs(coeffs).max(), err_msg=name)


def test_prepare_limit_warns_when_the_grid_rule_does(spec_half):
    # The n = 10 000 smoothed transfer aliases on the 4096-point grid; the
    # closed form keeps the rule's half-resolution check and its warning.
    for n, warns in ((300, False), (10_000, True)):
        transfer = SmoothedTransfer(simulate_linear(spec_half, n,
                                                    np.random.default_rng(n)))
        found = []
        for compute in (lambda: compute_W(acf_score(2), 0.1168, transfer),
                        lambda: prepare_limit(LimitLawConfig(
                            score=acf_score(2), theta0=np.array([0.1168]),
                            alpha=1.5, transfer=transfer.coeffs))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                compute()
            found.append(any("quadrature for W not converged" in str(w.message)
                             for w in caught))
        assert found == [warns, warns]


@pytest.mark.parametrize("top", [14, 15, 16, 22, 31, 33])
def test_half_resolution_check_starts_where_a_lag_reaches_a_quarter(top):
    # At N = 64 the half-resolution fold has 32 slots, and a lag h of the
    # unfolded row shares its slot with lag 32 - h once h reaches 16: the
    # check warns from there on, as the grid rule's does, and is skipped
    # below, where both folds hold the same squares.
    r = 0.5 ** np.arange(top - 1)  # r_0..r_H; the score's lag 2 adds 2
    r[-1] = 0.3

    def transfer(omega):
        return 1.0 + 2.0 * np.cos(np.outer(omega, np.arange(1, r.size))) @ r[1:]

    found = []
    for compute in (lambda: compute_W(acf_score(2), 0.1, transfer, 64),
                    lambda: prepare_limit(LimitLawConfig(
                        score=acf_score(2), theta0=np.array([0.1]), alpha=1.5,
                        transfer=r, quad_points=64, truncation=20))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            compute()
        found.append(any("quadrature for W" in str(w.message) for w in caught))
    assert found == [top >= 16] * 2


@pytest.mark.parametrize("n", [300, 10_000])
def test_stacked_scalar_laws_equal_one_law_at_a_time(spec_half, n):
    # The laws of a stack are folded a few at a time into one buffer (eight
    # at N = 4096, so eleven laws take two blocks); each law gets bitwise
    # what it gets alone, and the half-resolution check warns once for each
    # aliased law (every law of n = 10 000, none of n = 300).
    transfers = np.stack([SmoothedTransfer(simulate_linear(
        spec_half, n, np.random.default_rng(seed))).coeffs for seed in range(11)])
    thetas = np.linspace(-0.5, 0.5, 11)[:, None]

    def law(theta, transfer):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prepared = prepare_limit(LimitLawConfig(score=acf_score(2), theta0=theta,
                                                    alpha=1.5, transfer=transfer))
        return prepared, sum("quadrature for W" in str(w.message) for w in caught)

    stacked, warned = law(thetas, transfers)
    assert warned == (11 if n == 10_000 else 0)
    assert stacked["w"].shape == stacked["w_inv"].shape == stacked["closure"].shape == (11,)
    for i, (theta, transfer) in enumerate(zip(thetas, transfers)):
        one, _ = law(theta, transfer)
        for key in ("w", "coeffs"):
            assert stacked[key][i].tobytes() == np.asarray(one[key]).tobytes(), key


def test_single_parameter_w_is_inverted_without_lapack(spec_half):
    # W and 1 / W are numbers, and 1 / w is LAPACK's inverse of the 1 x 1
    # matrix [w] bit for bit; W = 0 still takes the pseudo-inverse with the
    # ill-conditioning warning.
    for transfer in (FLAT, SmoothedTransfer(simulate_linear(
            spec_half, 300, np.random.default_rng(3))).coeffs):
        prepared = prepare_limit(LimitLawConfig(
            score=acf_score(2), theta0=np.array([0.3]), alpha=1.5, transfer=transfer))
        assert type(prepared["w"]) is float and type(prepared["w_inv"]) is float
        assert prepared["w_inv"] == np.linalg.inv([[prepared["w"]]])[0, 0]
    # 1 + 2 r_N cos(N omega) with r_N = -1/2 vanishes at every point of the
    # N = 4096 grid, so the rule's W is exactly 0
    vanishing = np.zeros(4097)
    vanishing[[0, 4096]] = 1.0, -0.5
    zero = LimitLawConfig(score=acf_score(2), theta0=np.array([0.3]), alpha=1.5,
                          transfer=vanishing)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        assert prepare_limit(zero)["w_inv"] == 0.0


def test_scalar_limit_law_needs_an_autocorrelation_score():
    score = acf_score(2)
    plain = ScoreFunction(name="plain", dim=1, domain=score.domain,
                          intercept=score.intercept, slope=score.slope)
    config = LimitLawConfig(score=plain, theta0=np.array([0.1]), alpha=1.5,
                            transfer=FLAT)
    with pytest.raises(ValueError, match="autocorrelation score"):
        prepare_limit(config)


@settings(max_examples=40, deadline=None)
@given(b=st.floats(-0.9, 0.9), lag=st.integers(1, 3), alpha=st.floats(1.1, 1.9))
def test_exact_closure_is_twice_the_sample_acf_constant(b, lag, alpha):
    # At theta = rho(l) the EL series coefficients are c_t = -2 (rho(t + l)
    # + rho(t - l) - 2 rho(t) rho(l)): twice the terms of the sample-ACF
    # limit scale of Davis & Resnick (1986).
    spec = ma_polynomial_spec(b, alpha=alpha)
    rho = lambda k: theoretical_acf(spec, k)
    law = limit_law(ExperimentConfig(), acf_score(lag), rho(lag), alpha, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        closure = prepare_limit(law)["closure"]
        sac = sac_series_constant(rho, lag, alpha)
    assert abs(closure - 2.0 * sac) <= 1e-12 * sac


def test_curvature_matches_half_resolution(spec_half):
    transfer = lambda w: normalized_transfer(spec_half, w)
    w1 = compute_W(acf_score(2), 0.1168, transfer, quad_points=4096)
    w2 = compute_W(acf_score(2), 0.1168, transfer, quad_points=2048)
    assert abs(w1[0, 0] - w2[0, 0]) < 1e-6 * abs(w1[0, 0])


def test_series_coefficients_truncation_stability(spec_half):
    config = dict(score=acf_score(2), theta0=np.array([0.1168]), alpha=1.5,
                  transfer=exact_coeffs(spec_half))
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
    grid = _uniform_grid(4096)
    psi = transfer_matrix(vspec, grid) / math.sqrt(np.sum(spec_half.psi ** 2))
    f = _f_matrix(score_mv, theta0, psi, grid)

    def transfer_sc(w):
        return normalized_transfer(spec_half, w)

    w_mv = compute_W_mv(f)
    w_sc = compute_W(score_sc, theta0, transfer_sc)
    assert abs(w_mv - w_sc[0, 0]) < 1e-8 * abs(w_sc[0, 0])

    c_mv = compute_V_coeffs_mv(f, truncation=50)
    c_sc = compute_V_coeffs(score_sc, theta0, transfer_sc, truncation=50)
    np.testing.assert_allclose(c_mv[:, 0, 0], c_sc, atol=1e-8)


def _reference_matrix_law(score, theta0, spec, truncation=200, quad_points=4096):
    """W and c_t of a matrix score by the formulas written out: W from the
    power transfer g = Psi Psi* as tr[g G g G] + tr[g G]**2, and c_t from the
    integrand Re{F e^(i t omega)} on a (T, N) phase tensor, both by the plain
    trapezoid rule."""
    grid = np.linspace(-np.pi, np.pi, quad_points + 1)
    step = grid[1] - grid[0]

    def trapezoid(values):
        return step * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))

    grad = np.asarray(score.grad_inv(grid, theta0))  # (N, d, d)
    psi = transfer_matrix(spec, grid)
    psi_h = np.conj(np.swapaxes(psi, -1, -2))
    g_grad = (psi @ psi_h) @ grad
    trace = np.einsum("taa->t", g_grad)
    curvature = (np.einsum("tab,tba->t", g_grad, g_grad) + trace * trace).real
    w = trapezoid(curvature) / (2.0 * np.pi * score.dim ** 2)
    f = psi_h @ grad @ psi
    phases = np.exp(1j * np.outer(np.arange(1, truncation + 1), grid))  # (T, N)
    integrand = (f[None] * phases[:, :, None, None]).real              # (T, N, d, d)
    return w, trapezoid(np.moveaxis(integrand, 1, -1)) / np.pi


@pytest.mark.parametrize("b", [0.0, 0.3, 0.6, 0.9])
def test_matrix_limit_law_matches_the_written_out_formulas(b):
    # W through F = Psi* G Psi equals the g-based trace form by cyclicity,
    # and the DFT rule for c_t equals the trapezoid of the phase tensor.
    spec = vma_table_spec(b)
    score = coupling_var1_score()
    theta0 = pivotal_value(spec, score)
    w_ref, c_ref = _reference_matrix_law(score, theta0, spec)
    grid = _uniform_grid(4096)
    f = _f_matrix(score, theta0, transfer_matrix(spec, grid), grid)
    w, c = compute_W_mv(f), compute_V_coeffs_mv(f)
    assert type(w) is float and c.shape == c_ref.shape == (200, 2, 2)
    assert abs(w - w_ref) <= 1e-12 * abs(w_ref)
    assert np.max(np.abs(c - c_ref)) <= 1e-12 * np.max(np.abs(c_ref))


@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@settings(max_examples=8, deadline=None)
@given(b=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
       thetas=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=5),
       hill=st.booleans())
def test_stacked_matrix_law_equals_one_law_at_a_time(b, thetas, hill):
    # The laws of a stack share one sample of Psi, and each reads its own
    # F = Psi* G Psi from it, so each gets bitwise what it gets alone.
    spec, score = vma_table_spec(b), coupling_var1_score()
    alphas = np.linspace(1.1, 1.9, len(thetas)) if hill else 1.5
    calls = []

    def psi(omega):
        calls.append(len(omega))
        return transfer_matrix(spec, omega)

    def law(theta, alpha):
        return prepare_limit(LimitLawConfig(score=score, theta0=theta, alpha=alpha,
                                            psi_matrix=psi, truncation=60))

    stacked = law(np.array(thetas)[:, None], alphas)
    assert calls == [4097]
    for i, theta in enumerate(thetas):
        one = law(np.array([theta]), np.broadcast_to(alphas, len(thetas))[i])
        for key in ("w", "w_inv", "coeffs"):
            assert stacked[key][i].tobytes() == np.asarray(one[key]).tobytes(), key
        assert stacked["closure"][i] == one["closure"]


def test_matrix_law_needs_an_even_grid():
    # its half-resolution check reads the even-indexed samples of F
    vspec = vma_table_spec(0.3)
    config = LimitLawConfig(score=coupling_var1_score(), theta0=np.array([0.1755]),
                            alpha=1.5, psi_matrix=lambda w: transfer_matrix(vspec, w),
                            quad_points=4095)
    with pytest.raises(ValueError, match="even quad_points, got 4095"):
        prepare_limit(config)


# --------------------------------------------------------------------------
# sampling the limit statistic

def test_limit_draws_reproducible_and_positive():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=FLAT, truncation=10, reps=2000)
    a = sample_limit_stat(config, np.random.default_rng(42))
    b = sample_limit_stat(config, np.random.default_rng(42))
    assert a.shape == (2000,)
    np.testing.assert_array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(np.isfinite(a))


def test_limit_law_is_heavy_tailed():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=FLAT, truncation=10, reps=50_000)
    draws = sample_limit_stat(config, np.random.default_rng(7))
    q90, q99 = np.quantile(draws, [0.9, 0.99])
    assert q99 > 2.4 * q90


def test_simplified_sampler_matches_series_sampler():
    # For one parameter the weighted SaS series collapses to a single scaled
    # draw; the two samplers must agree in distribution.
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.1]), alpha=1.5,
                            transfer=FLAT, truncation=30, reps=20_000)
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
    # an explicit pair does not check alpha, the draws do
    for alpha in (0.0, 2.0, 2.5):
        with pytest.raises(ValueError, match="alpha in"):
            sample_stable_ratio(alpha, 10, rng1, (1.0, 1.0))
        with pytest.raises(ValueError, match="alpha in"):
            ratio_quantiles(alpha, 0.9, 10, rng1, (1.0, 1.0))


_DRAW = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=True, allow_infinity=True),
                  st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]))


def _same(got, expect):
    return all(math.isnan(value) and math.isnan(reference)
               or struct.pack("d", value) == struct.pack("d", reference)
               for value, reference in zip(got, expect))


@settings(max_examples=300, deadline=None)
@given(draws=st.lists(_DRAW, min_size=2, max_size=40),
       level=st.floats(0.0, 1.0, exclude_max=True))
def test_ratio_quantiles_equal_numpy_quantiles(draws, level):
    # The window, its check and the pair above the k-th value give
    # np.quantile's two values to the bit, inf draws (a zero S_0 divides to
    # inf) included; a nan draw gives nan, whatever its payload.  Draw i
    # stands for the value draws[i], whose estimate is its float32 log.
    draws = np.array(draws)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        expect = (float(np.quantile(np.abs(draws) ** 2, level)),
                  float(np.quantile(np.abs(draws), level)))
        estimates = np.log(np.abs(draws)).astype(np.float32)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(elstable.limitlaw, "_ratio_draws", lambda alpha, reps, rng: (
                np.arange(reps, dtype=float), None, None, None))
            patch.setattr(elstable.limitlaw, "_ratio", lambda alpha, multipliers, index: (
                draws[index[0].astype(int)]))
            patch.setattr(elstable.limitlaw, "_ratio_logs", lambda alpha, index, shift, limit: (
                iter([(0, estimates.copy())])))
            got = ratio_quantiles(1.5, level, draws.size, None, "davis-resnick")
    assert _same(got, expect), (got, expect)


def _numpy_ratio_quantiles(alpha, level, reps, rng, convention):
    draws = np.abs(sample_stable_ratio(alpha, reps, rng, convention))
    return float(np.quantile(draws ** 2, level)), float(np.quantile(draws, level))


def _windows(patch):
    """Record what each call of ``_window_pair`` returns: ``None`` when
    the window's check failed and every draw was computed."""
    windows, window_pair = [], elstable.limitlaw._window_pair
    patch.setattr(elstable.limitlaw, "_window_pair",
                  lambda *args: windows.append(window_pair(*args)) or windows[-1])
    return windows


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 1.5, 1.9, 1.99])
def test_ratio_quantiles_equal_the_quantiles_of_all_draws(alpha):
    # The prefilter's window gives the quantiles of all the float64 draws
    # to the bit, and leaves the generator where drawing them all would.
    with pytest.MonkeyPatch.context() as patch:
        windows = _windows(patch)
        for reps, seeds in ((1000, range(4)), (1001, range(4)), (100_000, range(2))):
            for level in (0.5, 0.9, 0.95, 0.99):
                for convention in ("davis-resnick", (1.3, 0.7)):
                    for seed in seeds:
                        rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                        got = ratio_quantiles(alpha, level, reps, rng, convention)
                        expect = _numpy_ratio_quantiles(alpha, level, reps, oracle,
                                                        convention)
                        assert _same(got, expect), (alpha, reps, level, convention, seed)
                        assert rng.random() == oracle.random()
    # no draws but the window's were computed
    assert all(pair is not None for pair in windows)


class _FakeRng:
    """Plays back fixed uniform and exponential draws, in call order."""

    def __init__(self, streams):
        self.streams = list(streams)

    def random(self, out):
        out[...] = self.streams.pop(0)[:out.size]
        return out

    standard_exponential = random


def _edge_draws(alpha, reps, seed, kanter_zero=False):
    """Uniforms and exponentials of which a third are edge values: the
    angles next to 0, pi/2 and pi (and exactly -pi/2), exponentials of 0 and
    next to it, and huge ones."""
    rng = np.random.default_rng(seed)
    tiny, a = 2.0 ** -53, alpha / 2.0
    u0_edge = [tiny, 1.0 - tiny, 0.5 / a, 0.5 / a - tiny, 0.5 / (1.0 - a)]
    u1_edge = [0.0, tiny, 1.0 - tiny, 0.5, 0.5 + tiny, 0.5 - tiny, 0.5 + 0.5 / alpha,
               0.5 - 0.5 / alpha]
    # below alpha = 1 an exponential of 0 or next to it overflows either
    # stable draw to inf, and their ratio to nan
    w_edge = [0.0, 5e-324, 1e-300, tiny, 700.0] if alpha >= 1.0 else [tiny, 700.0]
    streams = []
    for edge in (u0_edge, w_edge, u1_edge, w_edge):
        values = rng.random(reps) if edge is not w_edge else rng.standard_exponential(reps)
        pick = rng.random(reps) < 1.0 / 3.0
        values[pick] = rng.choice([e for e in edge if 0.0 <= e < 1.0 or edge is w_edge],
                                  pick.sum())
        streams.append(values)
    if kanter_zero:
        streams[0][reps // 2] = 0.0  # sin(0) / sin(0)**(1/a): a nan draw
    return streams if alpha != 1.0 else streams[:3]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.99])
def test_ratio_quantiles_place_edge_draws(alpha):
    # Uniforms of 0 and next to the edges of the angles' ranges and
    # exponentials of 0 and next to it, a third of all draws, are placed by
    # the prefilter or computed up front, and the window holds the pair; a
    # uniform of 0 in Kanter's draws gives a nan, and all draws are computed.
    with warnings.catch_warnings(), np.errstate(all="ignore"), \
            pytest.MonkeyPatch.context() as patch:
        warnings.simplefilter("ignore", RuntimeWarning)
        windows = _windows(patch)
        for reps, seed in ((1000, 0), (10_000, 1), (10_000, 2)):
            streams = _edge_draws(alpha, reps, seed)
            for level in (0.5, 0.9, 0.99):
                got = ratio_quantiles(alpha, level, reps, _FakeRng(streams), "davis-resnick")
                expect = _numpy_ratio_quantiles(alpha, level, reps, _FakeRng(streams),
                                                "davis-resnick")
                assert _same(got, expect), (reps, seed, level, got, expect)
                assert math.isfinite(got[0]) and windows[-1] is not None
        streams = _edge_draws(alpha, 10_000, 3, kanter_zero=True)
        got = ratio_quantiles(alpha, 0.9, 10_000, _FakeRng(streams), "davis-resnick")
        assert math.isnan(got[0]) and math.isnan(got[1]) and windows[-1] is None


def test_ratio_quantiles_fall_back_to_all_draws():
    # With no margin the window's check cannot pass, and every draw is
    # computed: still the same quantiles, to the bit.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elstable.limitlaw, "_MARGIN", 0.0)
        windows = _windows(patch)
        for alpha, reps, seed in ((1.5, 1001, 0), (1.0, 100_000, 1), (1.9, 100_000, 2)):
            got = ratio_quantiles(alpha, 0.9, reps, np.random.default_rng(seed),
                                  "davis-resnick")
            expect = _numpy_ratio_quantiles(alpha, 0.9, reps, np.random.default_rng(seed),
                                            "davis-resnick")
            assert _same(got, expect)
    assert len(windows) == 3 and all(pair is None for pair in windows)


def test_ratio_quantiles_with_multipliers_past_the_float64_range():
    # Multipliers that underflow the ratios leave no room for the prefilter,
    # which is skipped, and ones that nearly do shrink its limit.
    estimated = []
    ratio_logs = elstable.limitlaw._ratio_logs
    with pytest.MonkeyPatch.context() as patch:
        windows = _windows(patch)
        patch.setattr(elstable.limitlaw, "_ratio_logs",
                      lambda *args: estimated.append(args[-1]) or ratio_logs(*args))
        for convention in ((1e-300, 1e300), (1e-120, 1e120)):
            got = ratio_quantiles(1.5, 0.9, 1001, np.random.default_rng(4), convention)
            expect = _numpy_ratio_quantiles(1.5, 0.9, 1001, np.random.default_rng(4),
                                            convention)
            assert _same(got, expect)
    assert windows[0] is None and windows[1] is not None
    assert len(estimated) == 1 and 0.0 < estimated[0] < 44.0  # the limit L


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.2, 1.5, 1.9, 1.99])
def test_ratio_estimates_are_within_the_error_bound(alpha):
    # Every finite float32 estimate, of ordinary draws and of draws next to
    # the edges of the angles' ranges, is within the documented bound of
    # the log of the float64 draw; measured errors sit far below it.
    limitlaw = elstable.limitlaw
    multipliers = scale_multipliers(alpha)
    shift, limit, bound = limitlaw._prefilter_bounds(alpha, multipliers)
    draws = [limitlaw._ratio_draws(alpha, 50_000, np.random.default_rng(7)),
             tuple(_edge_draws(alpha, 20_000, 8)) + ((None,) if alpha == 1.0 else ())]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        for sample in draws:
            estimates = np.concatenate([z.copy() for _, z in
                                        limitlaw._ratio_logs(alpha, sample, shift, limit)])
            exact = np.log(np.abs(limitlaw._ratio(alpha, multipliers, sample)))
            placed = ~np.isnan(estimates)
            assert placed.mean() > 0.3
            assert np.max(np.abs(estimates[placed] - exact[placed])) < bound
    assert bound < 3e-4


def test_ratio_of_a_subset_is_the_subset_of_the_ratio():
    # The window recomputes a few draws; each must get the bits it gets
    # among all of them, whatever its place in the array.
    rng = np.random.default_rng(5)
    for alpha in (0.5, 1.0, 1.5, 1.99):
        multipliers = scale_multipliers(alpha)
        draws = elstable.limitlaw._ratio_draws(alpha, 5000, rng)
        copy = tuple(None if d is None else d.copy() for d in draws)
        full = elstable.limitlaw._ratio(alpha, multipliers, copy)
        for index in (np.array([4999]), rng.choice(5000, 37, replace=False),
                      np.arange(1, 5000, 2)):
            subset = elstable.limitlaw._subset(draws, index)
            part = elstable.limitlaw._ratio(alpha, multipliers, subset)
            assert part.tobytes() == full[index].tobytes()


def test_mc_quantile_reports_uncertainty():
    config = LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                            transfer=FLAT, truncation=10, reps=5000)
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


def test_limit_config_validation():
    with pytest.raises(ValueError):
        LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=2.0,
                       transfer=FLAT)
    with pytest.raises(ValueError):
        LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5)
    with pytest.raises(ValueError):
        LimitLawConfig(score=coupling_var1_score(), theta0=np.array([0.1]),
                       alpha=1.5, transfer=FLAT)
    # a scalar transfer is its cosine coefficients, not a function or a grid
    for transfer in (flat_transfer, SmoothedTransfer(np.arange(1.0, 9.0)),
                     np.ones((2, 3)), 1.0):
        with pytest.raises(ValueError, match="cosine coefficients"):
            LimitLawConfig(score=acf_score(2), theta0=np.array([0.0]), alpha=1.5,
                           transfer=transfer)


# --------------------------------------------------------------------------
# the competing interval's limit scale

def test_sac_constant_white_noise_is_one():
    rho = lambda k: 1.0 if k == 0 else 0.0
    assert abs(sac_series_constant(rho, 2, 1.5) - 1.0) < 1e-14


def test_sac_constant_accepts_array_and_matches_direct_sum(spec_half):
    # The terms by array indexing equal the written-out loop exactly, for an
    # array, an array shorter than lags 0..l+T (zero past its end) and a
    # callable.
    from elstable.processes import theoretical_acf

    values = np.array([theoretical_acf(spec_half, k) for k in range(400)])

    def short(k):
        return float(values[k]) if k < 150 else 0.0

    def direct(rho, lag, truncation):
        terms = np.array([rho(lag + j) + rho(abs(lag - j)) - 2.0 * rho(j) * rho(lag)
                          for j in range(1, truncation + 1)])
        return float(np.sum(np.abs(terms) ** 1.5) ** (1.0 / 1.5))

    for lag, truncation in ((2, 200), (1, 60), (3, 200)):
        assert (sac_series_constant(values, lag, 1.5, truncation)
                == direct(lambda k: float(values[k]), lag, truncation))
        for given in (values[:150], short):
            assert sac_series_constant(given, lag, 1.5, truncation) == direct(
                short, lag, truncation)

