"""Periodograms, smoothing, sample autocorrelations, and tail-index estimation.

The self-normalized periodogram of a series ``x`` of length ``n`` is

    I_tilde(omega) = |sum_t xt[t] * exp(i t omega)|**2,   xt = x / sqrt(sum x**2),

which stays integrable even when the innovations have infinite variance.  On
the natural frequency grid ``lambda_t = 2 pi t / n`` (t = 1..n, wrapped into
(-pi, pi]) it is computed by FFT; arbitrary frequencies use the direct sum.

The grid periodogram, the sample autocorrelations and the smoothed transfer
also take a stack of series, shape (B, n), and treat each row as one series:
every row's values are bitwise those of the row alone.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateSeriesError


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@functools.lru_cache
def fourier_frequencies(n: int) -> np.ndarray:
    """Frequencies ``2 pi t / n`` for t = 1..n, wrapped into (-pi, pi].

    Cached per ``n``; the array is read-only.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    lam = 2.0 * np.pi * np.arange(1, n + 1) / n
    return _read_only(np.where(lam > np.pi, lam - 2.0 * np.pi, lam))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` of the last axes, row by row, bitwise equal to the 1-d
    product of each row (a stacked matmul; ``einsum`` and ``(x * y).sum(-1)``
    round differently)."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _validated(x: np.ndarray, what: str = "series") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DegenerateSeriesError(f"empty {what}")
    if not np.all(np.isfinite(x)):
        raise DegenerateSeriesError(f"{what} contains NaN or infinite values")
    return x


def _self_normalized(x: np.ndarray) -> np.ndarray:
    """Each series (row) divided by its root sum of squares."""
    x = _validated(x)
    ss = _row_dot(x, x)
    if np.any(ss <= 0.0):
        raise DegenerateSeriesError("series is identically zero")
    return x / np.sqrt(ss)[..., None]


def self_normalized_grid(x: np.ndarray) -> np.ndarray:
    """Self-normalized periodogram at :func:`fourier_frequencies`, via FFT.

    ``|sum_t x[t] exp(2 pi i t k / n)| = |fft(x)[k mod n]|`` for real input,
    so the grid values cost one FFT regardless of how many are needed; the
    roll puts ``t = n`` (index 0) last.
    """
    xt = _self_normalized(np.asarray(x, dtype=float))
    power = np.abs(np.fft.fft(xt))
    power **= 2
    return np.roll(power, -1, axis=-1)


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


def sample_acf(x: np.ndarray, lag: int) -> np.ndarray:
    """Self-normalized sample autocorrelation without mean centering.

    ``rho_hat(h) = sum_{t=1}^{n-h} x[t] x[t+h] / sum_t x[t]**2``, matching the
    normalization of the self-normalized periodogram.
    """
    x = _validated(x)
    n = x.shape[-1]
    h = int(lag)
    if not 0 <= h < n:
        raise ValueError(f"lag must lie in [0, n) = [0, {n}), got {h}")
    denom = _row_dot(x, x)
    if np.any(denom <= 0.0):
        raise DegenerateSeriesError("series is identically zero")
    return _row_dot(x[..., :n - h], x[..., h:]) / denom if h else np.ones_like(denom)


def acf_sequence(x: np.ndarray) -> np.ndarray:
    """All sample autocorrelations ``rho_hat(0..n-1)`` via FFT convolution."""
    xt = _self_normalized(np.asarray(x, dtype=float))
    n = xt.shape[-1]
    nfft = 1 << (2 * n - 1).bit_length()
    spec = np.abs(np.fft.rfft(xt, nfft))
    spec **= 2
    return np.fft.irfft(spec, nfft)[..., :n]


@functools.lru_cache
def _dirichlet_weights(n: int, count: int) -> np.ndarray:
    """Averaging factor ``(1/count) sum_{|k|<=m} cos(h k delta)`` per lag
    h < n, with the Fourier spacing ``delta = 2 pi / n``.

    Cached per ``(n, count)``; the array is read-only.
    """
    h = np.arange(n)
    half = h * (2.0 * np.pi / n) / 2.0
    s = np.sin(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sin(count * half) / (count * s)
    return _read_only(np.where(np.isclose(np.abs(s), 0.0, atol=1e-14), 1.0, d))


class SmoothedTransfer:
    """Smoothed self-normalized periodogram as an estimate of g-tilde.

    Averaging the self-normalized periodogram over ``2 m + 1`` Fourier
    frequencies ``2 pi / n`` apart, ``m = floor(sqrt(n))``, multiplies its
    h-th autocorrelation coefficient by a Dirichlet factor, so the estimate
    is the cosine series

        J(omega) = 1 + 2 * sum_{h>=1} rho_hat(h) D_h cos(h omega),

    evaluated here for arbitrary ``omega``.  On the quadrature grid
    ``linspace(-pi, pi, N + 1)`` the series is one length-N FFT of its
    coefficients folded by :func:`folded_cosine_coeffs`.  ``acf`` keeps the
    sample autocorrelations ``rho_hat(0..n-1)`` and ``coeffs`` the smoothed
    ones; a stack of series (B, n) gives one row of each per series, and
    only one series can be evaluated.
    """

    def __init__(self, x: np.ndarray):
        x = _validated(x)
        n = x.shape[-1]
        m = int(np.sqrt(n))
        if 2 * m + 1 > n:
            raise ValueError(f"smoothing over 2 m + 1 = {2 * m + 1} frequencies needs "
                             f"that many observations, got n={n}")
        self.n = n
        self.acf = acf_sequence(x)
        self.coeffs = self.acf * _dirichlet_weights(n, 2 * m + 1)

    def __call__(self, omega) -> np.ndarray:
        if self.coeffs.ndim != 1:
            raise ValueError("a stack of smoothed transfers cannot be evaluated")
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


def folded_cosine_coeffs(coeffs, points: int, out: np.ndarray | None = None) -> np.ndarray:
    """The cosine series ``coeffs[0] + 2 sum_{h>=1} coeffs[h] cos(h omega)``
    folded onto the periodic grid ``omega_j = -pi + 2 pi j / points``.

    ``e^(i h omega_j) = (-1)**h e^(2 pi i h j / points)``, so lags ``+h`` and
    ``-h`` land in slots ``+h`` and ``-h mod points`` with sign ``(-1)**h``,
    and the series takes the values ``fft(folded).real`` on the grid.  The
    lags of one slot are added in increasing order, starting from zero, and
    slot ``m`` then adds the one-sided sum of slot ``-m``.  Leading axes of
    ``coeffs`` are rows folded one by one, each into one row of the result:
    the one-sided sums are written there, and when the lags stay below
    ``points / 2`` each slot and its mirror hold a sum and a zero, so the
    mirror is a copy.  ``out``, when given, is the float array of the
    result's shape that the fold is written into.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    size = coeffs.shape[-1]
    folded = np.empty(coeffs.shape[:-1] + (points,)) if out is None else out
    for start in range(0, size, points):
        width = min(points, size - start)
        block, lags = folded[..., :width], coeffs[..., start:start + width]
        # slots whose lag is even take +coeffs, the others -coeffs; x - c is
        # x + (-c) to the bit, and the first block adds to zero
        first_even = start % 2
        if start:
            block[..., first_even::2] += lags[..., first_even::2]
            block[..., 1 - first_even::2] -= lags[..., 1 - first_even::2]
        else:
            np.add(0.0, lags[..., ::2], out=block[..., ::2])
            np.subtract(0.0, lags[..., 1::2], out=block[..., 1::2])
            folded[..., 0] = 0.0  # lag 0 is not part of the one-sided sum
            folded[..., width:] = 0.0
    filled = min(size, points)
    if 2 * filled <= points + 1:
        # slot m < filled and its mirror points - m >= filled do not meet
        folded[..., :points - filled:-1] = folded[..., 1:filled]
    else:
        half = (points + 1) // 2
        pairs = folded[..., 1:half] + folded[..., :points - half:-1]
        folded[..., 1:half] = pairs
        folded[..., :points - half:-1] = pairs
        if points % 2 == 0:
            folded[..., half] += folded[..., half]
    folded[..., 0] = coeffs[..., 0] + 2.0 * folded[..., 0]
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
