"""Periodograms, smoothing, sample autocorrelations, and tail-index estimation.

The self-normalized periodogram of a series ``x`` of length ``n`` is

    I_tilde(omega) = |sum_t xt[t] * exp(i t omega)|**2,   xt = x / sqrt(sum x**2),

which stays integrable even when the innovations have infinite variance.  On
the natural frequency grid ``lambda_t = 2 pi t / n`` (t = 1..n, wrapped into
(-pi, pi]) it is computed by FFT; arbitrary frequencies use the direct sum.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSeriesError


def fourier_frequencies(n: int) -> np.ndarray:
    """Frequencies ``2 pi t / n`` for t = 1..n, wrapped into (-pi, pi]."""
    if n <= 0:
        raise ValueError("n must be positive")
    lam = 2.0 * np.pi * np.arange(1, n + 1) / n
    return np.where(lam > np.pi, lam - 2.0 * np.pi, lam)


def _validated(x: np.ndarray, what: str = "series") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DegenerateSeriesError(f"empty {what}")
    if not np.all(np.isfinite(x)):
        raise DegenerateSeriesError(f"{what} contains NaN or infinite values")
    return x


def _self_normalized(x: np.ndarray) -> np.ndarray:
    x = _validated(x)
    ss = float(x @ x) if x.ndim == 1 else float(np.sum(x * x))
    if ss <= 0.0:
        raise DegenerateSeriesError("series is identically zero")
    return x / np.sqrt(ss)


def self_normalized_periodogram(x: np.ndarray, omega) -> np.ndarray:
    """Self-normalized periodogram at arbitrary frequencies (direct sum)."""
    xt = _self_normalized(np.asarray(x, dtype=float))
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    phases = np.exp(1j * np.outer(omega, np.arange(1, xt.size + 1)))
    values = np.abs(phases @ xt) ** 2
    return float(values[0]) if scalar else values


def self_normalized_grid(x: np.ndarray) -> np.ndarray:
    """Self-normalized periodogram at :func:`fourier_frequencies`, via FFT.

    ``|sum_t x[t] exp(2 pi i t k / n)| = |fft(x)[k mod n]|`` for real input,
    so the grid values cost one FFT regardless of how many are needed.
    """
    xt = _self_normalized(np.asarray(x, dtype=float))
    n = xt.size
    mag = np.abs(np.fft.fft(xt)) ** 2
    return mag[np.arange(1, n + 1) % n]


def periodogram_matrix(x: np.ndarray, alpha: float, omega) -> np.ndarray:
    """Matrix periodogram ``d(omega) d(omega)*`` of a vector series.

    ``d(omega) = n**(-1/alpha) sum_t x[t] e^(i t omega)`` is the normalized
    discrete Fourier transform; the result is Hermitian PSD of rank one.
    """
    x = _validated(x)
    if x.ndim != 2:
        raise ValueError("vector series must have shape (n, d)")
    n = x.shape[0]
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    phases = np.exp(1j * np.outer(omega, np.arange(1, n + 1)))
    d = n ** (-1.0 / alpha) * (phases @ x)          # (n_omega, dim)
    mats = d[:, :, None] * np.conj(d[:, None, :])
    return mats[0] if scalar else mats


def periodogram_matrix_grid(x: np.ndarray, alpha: float) -> np.ndarray:
    """Matrix periodogram ``(n, d, d)`` at :func:`fourier_frequencies`, via
    one FFT per column."""
    x = _validated(x)
    if x.ndim != 2:
        raise ValueError("vector series must have shape (n, d)")
    n = x.shape[0]
    idx = np.arange(1, n + 1) % n
    # fft computes sum_t x[t] e^(-2 pi i t k / n); conjugate gives the +i sign.
    d = np.conj(np.fft.fft(x, axis=0))[idx] * n ** (-1.0 / alpha)
    return d[:, :, None] * np.conj(d[:, None, :])


def sample_acf(x: np.ndarray, lag) -> np.ndarray:
    """Self-normalized sample autocorrelation(s) without mean centering.

    ``rho_hat(h) = sum_{t=1}^{n-h} x[t] x[t+h] / sum_t x[t]**2``, matching the
    normalization of the self-normalized periodogram.
    """
    x = _validated(x)
    scalar = np.isscalar(lag)
    lags = np.atleast_1d(lag).astype(int)
    if np.any(lags < 0) or np.any(lags >= x.size):
        raise ValueError("lags must lie in [0, n)")
    denom = float(x @ x)
    if denom <= 0.0:
        raise DegenerateSeriesError("series is identically zero")
    out = np.array([float(x[:x.size - h] @ x[h:]) / denom if h else 1.0
                    for h in lags])
    return float(out[0]) if scalar else out


def acf_sequence(x: np.ndarray) -> np.ndarray:
    """All sample autocorrelations ``rho_hat(0..n-1)`` via FFT convolution."""
    xt = _self_normalized(np.asarray(x, dtype=float))
    n = xt.size
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.abs(np.fft.rfft(xt, nfft)) ** 2
    return np.fft.irfft(spec, nfft)[:n]


def _dirichlet_weights(n: int, count: int) -> np.ndarray:
    """Averaging factor ``(1/count) sum_{|k|<=m} cos(h k delta)`` per lag
    h < n, with the Fourier spacing ``delta = 2 pi / n``."""
    h = np.arange(n)
    half = h * (2.0 * np.pi / n) / 2.0
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sin(count * half) / (count * s)
    return np.where(np.isclose(np.abs(s), 0.0, atol=1e-14), 1.0, d)


class SmoothedTransfer:
    """Smoothed self-normalized periodogram as an estimate of g-tilde.

    Averaging the self-normalized periodogram over ``2 m + 1`` Fourier
    frequencies ``2 pi / n`` apart multiplies its h-th autocorrelation
    coefficient by a Dirichlet factor, so the estimate is the cosine series

        J(omega) = 1 + 2 * sum_{h>=1} rho_hat(h) D_h cos(h omega),

    evaluated here for arbitrary ``omega``.  On the quadrature grid
    ``linspace(-pi, pi, N + 1)`` the series is one length-N FFT of its
    coefficients folded by :func:`folded_cosine_coeffs`.  ``acf`` keeps the
    sample autocorrelations ``rho_hat(0..n-1)`` and ``coeffs`` the smoothed
    ones.
    """

    def __init__(self, x: np.ndarray, bandwidth: int | None = None):
        x = _validated(x)
        n = x.size
        m = int(np.sqrt(n)) if bandwidth is None else int(bandwidth)
        if m < 0 or 2 * m + 1 > n:
            raise ValueError(f"bandwidth m={m} out of range for n={n}")
        self.n = n
        self.bandwidth = m
        self.acf = acf_sequence(x)
        self.coeffs = self.acf * _dirichlet_weights(n, 2 * m + 1)

    def __call__(self, omega) -> np.ndarray:
        scalar = np.isscalar(omega) or np.ndim(omega) == 0
        omega = np.atleast_1d(np.asarray(omega, dtype=float))
        points = omega.size - 1
        if points >= 1 and np.array_equal(omega, np.linspace(-np.pi, np.pi, points + 1)):
            r = self.coeffs.copy()
            r[0] = 1.0  # the transfer is normalized
            values = np.fft.fft(folded_cosine_coeffs(r, points)).real
            values = values[np.arange(points + 1) % points]
        else:
            h = np.arange(1, self.n)
            values = 1.0 + 2.0 * (np.cos(np.outer(omega, h)) @ self.coeffs[1:])
        return float(values[0]) if scalar else values


def folded_cosine_coeffs(coeffs, points: int) -> np.ndarray:
    """The cosine series ``coeffs[0] + 2 sum_{h>=1} coeffs[h] cos(h omega)``
    folded onto the periodic grid ``omega_j = -pi + 2 pi j / points``.

    ``e^(i h omega_j) = (-1)**h e^(2 pi i h j / points)``, so lags ``+h`` and
    ``-h`` land in slots ``+h`` and ``-h mod points`` with sign ``(-1)**h``,
    and the series takes the values ``fft(folded).real`` on the grid.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    h = np.arange(1, coeffs.size)
    signed = np.where(h % 2 == 1, -coeffs[1:], coeffs[1:])
    one_sided = np.bincount(h % points, weights=signed, minlength=points)
    folded = one_sided.copy()
    folded[1:] += one_sided[:0:-1]
    folded[0] = coeffs[0] + 2.0 * one_sided[0]
    return folded


def hill_estimator(x: np.ndarray, k: int | None = None) -> float:
    """Hill tail-index estimate from the top ``k`` order statistics of |x|.

    ``alpha_hat = { (1/k) sum_{t<=k} log(|x|_(t) / |x|_(k+1)) }**(-1)`` with
    ``|x|_(1) >= |x|_(2) >= ...``; the default is ``k = floor(n**0.6)``.
    """
    x = _validated(x)
    a = np.abs(x.ravel())
    n = a.size
    if k is None:
        k = int(n ** 0.6)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must lie in [1, n-1], got {k}")
    top = np.sort(a)[::-1][:k + 1]
    if top[k] <= 0.0:
        raise DegenerateSeriesError("order statistic |x|_(k+1) is zero")
    mean_log = float(np.mean(np.log(top[:k] / top[k])))
    if mean_log <= 0.0:
        raise DegenerateSeriesError("tied order statistics give a degenerate Hill estimate")
    return 1.0 / mean_log


def hill_curve(x: np.ndarray, ks) -> np.ndarray:
    """Hill estimates across a range of k values, for diagnostic plots."""
    return np.array([hill_estimator(x, int(k)) for k in np.atleast_1d(ks)])
