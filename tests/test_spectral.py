"""Periodograms, smoothing, sample autocorrelations, and the Hill estimator."""

import math

import numpy as np
import pytest

from elstable.errors import DegenerateSeriesError
from elstable.spectral import (SmoothedTransfer, _dirichlet_weights, acf_sequence,
                               folded_cosine_coeffs, fourier_frequencies, hill_curve,
                               hill_estimator, periodogram_matrix_grid, sample_acf,
                               self_normalized_grid)
import oracles
from oracles import periodogram_matrix, self_normalized_periodogram


@pytest.fixture
def x(rng):
    return rng.standard_t(df=3, size=64)


# --------------------------------------------------------------------------
# periodogram identities

def test_grid_periodogram_matches_direct_sum(x):
    grid = self_normalized_grid(x)
    direct = self_normalized_periodogram(x, fourier_frequencies(x.size))
    np.testing.assert_allclose(grid, direct, atol=1e-10)


def test_periodogram_parseval_mean_is_one(x):
    # (1/n) sum_t I_tilde(lambda_t) = sum x_tilde^2 = 1, exactly.
    values = self_normalized_grid(x)
    assert abs(np.mean(values) - 1.0) < 1e-12


def test_periodogram_scale_invariance(x):
    a = self_normalized_periodogram(x, 0.7)
    b = self_normalized_periodogram(1000.0 * x, 0.7)
    assert abs(a - b) < 1e-12


def test_fourier_frequencies_wrap():
    freqs = fourier_frequencies(6)
    assert freqs.shape == (6,)
    assert np.all(freqs > -np.pi) and np.all(freqs <= np.pi)
    assert abs(freqs[-1] - 0.0) < 1e-15  # t = n wraps to 2 pi -> 0


def test_degenerate_series_rejected():
    with pytest.raises(DegenerateSeriesError):
        self_normalized_periodogram(np.zeros(10), 0.5)
    with pytest.raises(DegenerateSeriesError):
        self_normalized_periodogram(np.array([1.0, np.nan]), 0.5)
    with pytest.raises(DegenerateSeriesError):
        self_normalized_periodogram(np.array([]), 0.5)


def test_matrix_periodogram_hermitian_rank_one(rng):
    x = rng.standard_normal((32, 2))
    mats = periodogram_matrix(x, 1.5, np.array([0.4, 2.0]))
    np.testing.assert_allclose(mats, np.conj(np.swapaxes(mats, -1, -2)), atol=1e-12)
    for m in mats:
        eigs = np.linalg.eigvalsh(m)
        assert eigs[0] > -1e-12          # positive semi-definite
        assert eigs[0] < 1e-10 * eigs[1]  # rank one


def test_matrix_periodogram_grid_matches_direct(rng):
    x = rng.standard_normal((24, 2))
    grid = periodogram_matrix_grid(x, 1.5)
    direct = periodogram_matrix(x, 1.5, fourier_frequencies(x.shape[0]))
    np.testing.assert_allclose(grid, direct, atol=1e-10)


# --------------------------------------------------------------------------
# sample autocorrelations

def test_sample_acf_definition(x):
    n = x.size
    denom = float(x @ x)
    for h in (0, 1, 5):
        expect = float(x[:n - h] @ x[h:]) / denom if h else 1.0
        assert abs(sample_acf(x, h) - expect) < 1e-12


def test_acf_sequence_matches_sample_acf(x):
    seq = acf_sequence(x)
    lags = np.arange(x.size)
    np.testing.assert_allclose(seq, [sample_acf(x, h) for h in lags], atol=1e-10)


def test_sample_acf_rejects_bad_lags(x):
    with pytest.raises(ValueError):
        sample_acf(x, -1)
    with pytest.raises(ValueError):
        sample_acf(x, x.size)


@pytest.mark.parametrize("n, count", [(8, 1), (50, 15), (300, 35), (301, 35)])
def test_per_n_constants_are_cached_read_only_and_exact(n, count):
    # One array per n (and smoothing width) serves every series of that
    # length, so no caller may write to it.
    lam = 2.0 * np.pi * np.arange(1, n + 1) / n
    freqs = fourier_frequencies(n)
    assert freqs.tobytes() == np.where(lam > np.pi, lam - 2.0 * np.pi, lam).tobytes()
    weights = _dirichlet_weights(n, count)
    m = (count - 1) // 2
    direct = [sum(math.cos(h * k * 2.0 * math.pi / n) for k in range(-m, m + 1)) / count
              for h in range(n)]
    np.testing.assert_allclose(weights, direct, rtol=0.0, atol=1e-12)
    for values, again in ((freqs, fourier_frequencies(n)),
                          (weights, _dirichlet_weights(n, count))):
        assert again is values
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_stacked_series_give_each_series_its_own_values(rng):
    # Each row of a stack is one series, bitwise as if it came alone.
    stack = rng.standard_t(df=3, size=(5, 64))
    for fn in (self_normalized_grid, acf_sequence, lambda x: sample_acf(x, 3),
               lambda x: SmoothedTransfer(x).coeffs):
        values = fn(stack)
        assert all(values[i].tobytes() == np.asarray(fn(row)).tobytes()
                   for i, row in enumerate(stack))
    with pytest.raises(ValueError, match="stack"):
        SmoothedTransfer(stack)(0.5)


# --------------------------------------------------------------------------
# smoothed transfer estimate

@pytest.mark.parametrize("n", [64, 300])
def test_smoothing_averages_the_periodogram_over_the_shipped_band(rng, n):
    # The smoother is the mean of the periodogram over the 2 m + 1 Fourier
    # neighbours omega + 2 pi k / n, |k| <= m, with m = floor(sqrt(n)).
    x = rng.standard_t(df=3, size=n)
    m = math.isqrt(n)
    omega = np.array([0.0, 0.4, 1.3, 3.0])
    shifts = 2.0 * np.pi * np.arange(-m, m + 1) / n
    mean = self_normalized_periodogram(x, np.add.outer(omega, shifts).ravel())
    np.testing.assert_allclose(SmoothedTransfer(x)(omega),
                               mean.reshape(omega.size, -1).mean(axis=1), atol=1e-8)


def test_smoothed_transfer_integrates_to_one(x):
    # The constant cosine-series term is rho_hat(0) = 1 for every bandwidth.
    smoother = SmoothedTransfer(x)
    grid = np.linspace(-np.pi, np.pi, 2049)
    integral = np.trapezoid(smoother(grid), grid) / (2.0 * np.pi)
    assert abs(integral - 1.0) < 1e-8


def test_smoothing_shrinks_high_lag_coefficients(x):
    smoother = SmoothedTransfer(x)
    far = np.arange(x.size) > 2 * math.isqrt(x.size)
    assert np.all(np.abs(smoother.coeffs[far]) <= np.abs(smoother.acf[far]) + 1e-12)


def test_smoothed_default_bandwidth_is_sqrt_n(x):
    # m = floor(sqrt(n)): the coefficients take the Dirichlet factor of 2 m + 1
    # frequencies, and a series shorter than 2 m + 1 is refused.
    smoother = SmoothedTransfer(x)
    weights = _dirichlet_weights(x.size, 2 * math.isqrt(x.size) + 1)
    assert smoother.coeffs.tobytes() == (smoother.acf * weights).tobytes()
    with pytest.raises(ValueError, match="2 m \\+ 1 = 3"):
        SmoothedTransfer(x[:2])


# ids: the smoother's Fourier spacing, n and N
@pytest.mark.parametrize("n, points", [(64, 256), (300, 64)],
                         ids=["fourier-64-256", "fourier-300-64"])
def test_smoothed_transfer_fft_matches_cosine_sum(rng, n, points):
    # On linspace(-pi, pi, N + 1) the series is evaluated by one FFT; with
    # n > N the lags fold modulo N.  The dense cosine sum is the oracle.
    smoother = SmoothedTransfer(rng.standard_t(df=3, size=n))
    omega = np.linspace(-np.pi, np.pi, points + 1)
    direct = 1.0 + 2.0 * (np.cos(np.outer(omega, np.arange(1, n)))
                          @ smoother.coeffs[1:])
    values = smoother(omega)
    np.testing.assert_allclose(values, direct, rtol=0.0, atol=1e-13)
    assert values[0] == values[-1]


# ids: the largest lag H against the N = 4096 slots (and N = 4095, 33)
@pytest.mark.parametrize("size", [1, 2, 302, 1025, 2049, 2050, 4097, 10_002],
                         ids=["H=0", "H<N/4", "H=301<N/4", "N/4<=H<N/2", "H=N/2",
                              "H>N/2", "H=N", "H>=N,n=10000"])
@pytest.mark.parametrize("points", [4096, 4095, 33])
def test_folded_cosine_coeffs_match_the_scratch_row_fold(rng, size, points):
    # The fold writes each row's one-sided sums and their mirror into one
    # N-wide row, fresh or a reused buffer holding anything; the scratch-row
    # fold it replaced is the oracle, bit for bit, zeros of both signs (odd
    # lags of a zero turn into -0.0) included.
    coeffs = rng.normal(size=(3, size))
    coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
    coeffs[rng.random(coeffs.shape) < 0.3] = -0.0
    for rows in (coeffs, coeffs[0]):
        oracle = oracles.folded_cosine_coeffs(rows, points)
        buffer = np.full(oracle.shape, np.nan)
        for folded in (folded_cosine_coeffs(rows, points),
                       folded_cosine_coeffs(rows, points, out=buffer)):
            assert folded.shape == oracle.shape
            assert folded.tobytes() == oracle.tobytes()


# --------------------------------------------------------------------------
# Hill tail-index estimation

def test_hill_hand_computed_value():
    # |x| order statistics 8 >= 4 >= 2 >= 1, k = 2:
    # mean log = (log(8/2) + log(4/2)) / 2 = 1.5 log 2.
    x = np.array([8.0, -4.0, 2.0, 1.0])
    assert abs(hill_estimator(x, k=2) - 1.0 / (1.5 * math.log(2.0))) < 1e-12


def test_hill_recovers_pareto_index(rng):
    # |X| = U^(-1/alpha) is exactly Pareto(alpha): the estimate is consistent.
    alpha = 1.5
    x = rng.random(50_000) ** (-1.0 / alpha)
    est = hill_estimator(x, k=2000)
    assert abs(est - alpha) < 0.1


def test_hill_default_k_and_validation(rng):
    x = rng.standard_cauchy(100)
    assert hill_estimator(x) == hill_estimator(x, k=int(100 ** 0.6))
    with pytest.raises(ValueError):
        hill_estimator(x, k=0)
    with pytest.raises(ValueError):
        hill_estimator(x, k=100)
    with pytest.raises(DegenerateSeriesError):
        hill_estimator(np.ones(50), k=10)


def test_hill_curve_matches_pointwise(rng):
    x = rng.standard_cauchy(200)
    ks = [5, 10, 20]
    np.testing.assert_allclose(hill_curve(x, ks),
                               [hill_estimator(x, k) for k in ks], atol=1e-14)
