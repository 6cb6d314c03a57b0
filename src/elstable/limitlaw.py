"""Monte-Carlo machinery for the heavy-tail limit law of the EL statistic.

Every score has one parameter, so under the null the normalized EL
statistic converges to ``V**2 / W``, where ``W`` is a transfer-weighted
curvature and ``V`` mixes an infinite series of i.i.d. SaS variables ``S_t``
against one positive ``alpha/2``-stable variable ``S_0``:

    V = sum_{t>=1} (S_t / S_0) * c_t,
    c_t = (1/pi) * integral  d(1/f)/d theta |_(theta_0) g(omega) cos(t omega) d omega,
    W = (1/2pi) * integral  (d(1/f)/d theta)**2 2 g(omega)**2 d omega.

``W`` is a positive number.  For a d-dimensional process both come
from one matrix function ``F = Psi* G Psi``, with ``Psi`` the transfer
matrices and ``G = d(1/f)/d theta``; ``c`` is indexed by lag and innovation
coordinates:

    c[t, i, j] = (1/pi) * integral Re{ F(omega)_(ij) e^(i t omega) } d omega,
    W = (1/(2 pi d**2)) * integral tr[F F] + tr[F]**2 d omega,

where ``tr[F F] = tr[g G g G]`` and ``tr F = tr[g G]`` for ``g = Psi Psi*``
(cyclicity of the trace).  Both are N-point trapezoid rules; for ``c`` the
rule is one DFT of the sampled ``F``, as in :func:`compute_V_coeffs`.

Scalar law in closed form.  For the autocorrelation score at lag ``l``,
``d(1/f)/d theta = 2 theta - 2 cos(l omega)``, and the normalized transfer
is a cosine series ``g = sum_k r_|k| e^(i k omega)`` with ``r_0 = 1``, so
both integrands are trigonometric polynomials and the trapezoid rule on the
periodic ``N = quad_points`` grid starting at ``-pi`` is a finite sum of
cosine coefficients (Parseval).  With

    u_k = 2 theta r_|k| - r_|k-l| - r_|k+l|,    k in Z,

folded modulo N with the sign ``(-1)**k`` of the shifted grid into the
periodic sequence ``u~_m = sum_{k = m mod N} (-1)**k u_k``,

    W = 2 sum_{m<N} u~_m**2,    c_t = 2 (-1)**t u~_(t mod N),

and the half-resolution check is the same sum folded modulo N/2.
:func:`prepare_limit` computes these sums directly: ``O(n + N)`` work with
no grid, equal to the N-point rule in exact arithmetic (:func:`compute_W`
and :func:`compute_V_coeffs` keep the grid rules).  The fold keeps the
rule's aliasing: a smoothed transfer of ``n`` observations has lags up to
``n - 1``, which wrap once ``n`` exceeds about N/2, and the check then
warns.  Removing that aliasing changes the thresholds of long series, so
it is left to a change that moves those outputs.

Scale convention.  The limit theory fixes only the stability indices of
``S_t`` and ``S_0``; their scales are pinned here by matching the classical
sample-autocorrelation limit for i.i.d. stable noise: ``S_t`` is SaS with
characteristic-function scale ``1 / C_alpha`` where ``C_alpha = (1 - alpha) /
(Gamma(2 - alpha) cos(pi alpha / 2))`` is the stable tail constant, and
``S_0`` is positive ``alpha/2``-stable with Laplace transform
``exp(-Gamma(1 - alpha/2) s**(alpha/2))``.  Both enter only through the
ratio, and both multipliers are exposed as knobs (``scale_convention``).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import TruncationWarning
from .processes import StableParams, sample_positive_stable, sample_sas
from .scores import ScoreFunction, check_alpha
from .spectral import _row_dot, folded_cosine_coeffs

_SAMPLE_BLOCK = 20_000  # stable draws are generated in blocks of this many reps


def tail_constant(alpha: float) -> float:
    """Tail constant ``C_alpha`` with ``P(|Z| > x) ~ C_alpha * sigma * x**-alpha``."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"tail constant defined for alpha in (0, 2), got {alpha}")
    if alpha == 1.0:
        return 2.0 / np.pi
    return (1.0 - alpha) / (math.gamma(2.0 - alpha) * np.cos(np.pi * alpha / 2.0))


def scale_multipliers(alpha: float, convention="davis-resnick") -> tuple[float, float]:
    """Multipliers applied to the unit-scale stable draws ``(S_t, S_0)``.

    ``"davis-resnick"`` is the default calibration described in the module
    docstring; a pair of floats is passed through unchanged.
    """
    if isinstance(convention, str):
        if convention == "davis-resnick":
            return (tail_constant(alpha) ** (-1.0 / alpha),
                    math.gamma(1.0 - alpha / 2.0) ** (2.0 / alpha))
        raise ValueError(f"unknown scale convention {convention!r}")
    s_mult, s0_mult = (float(convention[0]), float(convention[1]))
    if s_mult <= 0 or s0_mult <= 0:
        raise ValueError("scale multipliers must be positive")
    return s_mult, s0_mult


def _uniform_grid(quad_points: int) -> np.ndarray:
    if quad_points < 16:
        raise ValueError("quad_points too small")
    return np.linspace(-np.pi, np.pi, quad_points + 1)


@functools.lru_cache
def _grid_step(quad_points: int) -> float:
    grid = _uniform_grid(quad_points)
    return float(grid[1] - grid[0])


def _trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    return h * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def _trapezoid_checked(values: np.ndarray, coarse: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid rule of ``values`` sampled on ``_uniform_grid(N)`` along the
    last axis.

    The result is cross-checked at half resolution against ``coarse``, the
    integrand sampled on ``_uniform_grid(N // 2)``.  For an even N that grid
    is the even-indexed subgrid bit for bit, and ``coarse`` defaults to
    those samples; an odd N needs ``coarse``.
    """
    points = values.shape[-1] - 1
    if coarse is None:
        if points % 2:
            raise ValueError(f"the matrix limit law needs an even quad_points, "
                             f"got {points}")
        coarse = values[..., ::2]
    total = _trapezoid(values, _uniform_grid(points))
    check = _trapezoid(coarse, _uniform_grid(points // 2))
    scale = np.max(np.abs(total)) + 1e-300
    if np.max(np.abs(total - check)) > 1e-6 * scale:
        warnings.warn("quadrature for W not converged at the requested grid; "
                      "increase quad_points", RuntimeWarning, stacklevel=3)
    return total


def _cosine_moments(weight: np.ndarray, truncation: int) -> np.ndarray:
    """``(1/pi) integral Re{ w(omega) e^(i t omega) } d omega`` for t = 1..T,
    with ``w = weight`` sampled on ``_uniform_grid(N)`` along its first axis.

    The trapezoid rule is a DFT: ``Re sum_j w_j e^(i t omega_j) = (-1)**t Re
    fft(conj w)[t]``, the first sample carrying the mean of both end weights.
    """
    points = weight.shape[0] - 1
    periodic = np.conj(weight[:-1])
    periodic[0] = np.conj(0.5 * (weight[0] + weight[-1]))
    lags = np.arange(1, truncation + 1)
    sums = np.fft.fft(periodic, axis=0).real[lags % points]
    sums[lags % 2 == 1] *= -1.0
    return _grid_step(points) * sums / np.pi


def _f_matrix(score: ScoreFunction, theta0, psi: np.ndarray,
              grid: np.ndarray) -> np.ndarray:
    """``F = Psi* G Psi`` on ``grid`` as ``(N, d, d)``, from the transfer
    matrices ``psi`` sampled there and the score's ``G = d(1/f)/d theta`` at
    ``theta0``."""
    grad = np.asarray(score.grad_inv(grid, score.check_theta(theta0)))
    return np.conj(np.swapaxes(psi, -1, -2)) @ grad @ psi


def compute_W(score: ScoreFunction, theta0, transfer: Callable,
              quad_points: int = 4096) -> np.ndarray:
    """Scalar-process curvature ``W`` at ``theta0``, as a 1 x 1 matrix.

    ``transfer`` maps a frequency array to normalized power-transfer values.
    The trapezoid rule on a uniform grid is spectrally accurate for these
    periodic integrands; the result is cross-checked at half resolution.
    """
    theta0 = score.check_theta(theta0)

    def integrand(grid):
        grad = np.asarray(score.grad_inv(grid, theta0))
        return grad * grad * (2.0 * np.asarray(transfer(grid)) ** 2)

    values = integrand(_uniform_grid(quad_points))
    coarse = integrand(_uniform_grid(quad_points // 2)) if quad_points % 2 else None
    return np.reshape(_trapezoid_checked(values, coarse) / (2.0 * np.pi), (1, 1))


def compute_W_mv(f: np.ndarray) -> float:
    """Vector-process curvature ``W``.

    ``f`` is ``F = Psi* G Psi`` sampled on ``_uniform_grid(N)``, N even, as
    ``(N + 1, d, d)`` (:func:`_f_matrix`); the integrand is
    ``tr[F F] + tr[F]**2`` (module docstring), and the result is divided by
    ``2 pi d**2``.
    """
    d = f.shape[-1]
    trace = np.einsum("taa->t", f)
    values = (np.einsum("tab,tba->t", f, f) + trace * trace).real
    return float(_trapezoid_checked(values) / (2.0 * np.pi * d * d))


def _check_tail_decay(norms: np.ndarray, what: str, alpha=1.0,
                      advice: str = "increase the truncation order") -> None:
    # The series constant is (sum |c_t|^alpha)^(1/alpha), so the relevant
    # truncation error is the share of that mass sitting in the last decile
    # of retained lags; tiny non-decaying ripples are harmless.  Leading
    # axes of ``norms`` (and of ``alpha``) are series checked one by one.
    t = norms.shape[-1]
    if t < 20:
        return
    decile = max(1, t // 10)
    powered = norms ** np.asarray(alpha)[..., None]
    mass = np.sum(powered, axis=-1) + 1e-300
    tail_share = np.sum(powered[..., -decile:], axis=-1) / mass
    last = norms[..., -decile:].max(axis=-1)
    prev = norms[..., -2 * decile:-decile].max(axis=-1)
    for share in tail_share[(tail_share > 0.01) & (last >= prev)]:
        warnings.warn(f"{what} coefficients are not decaying at the truncation "
                      f"point (last decile holds {share:.2%} of the "
                      f"series mass); {advice}", TruncationWarning, stacklevel=3)


def compute_V_coeffs(score: ScoreFunction, theta0, transfer: Callable,
                     truncation: int = 200, quad_points: int = 4096,
                     alpha: float = 1.0) -> np.ndarray:
    """Coefficients ``c_t`` of the stable series in ``V`` (t = 1..T), as a
    (T,) array.

    ``alpha`` only tunes the truncation diagnostic (the coefficients enter
    the limit series through ``sum |c_t|^alpha``).
    """
    theta0 = score.check_theta(theta0)
    grid = _uniform_grid(quad_points)
    grad = np.asarray(score.grad_inv(grid, theta0))
    coeffs = _cosine_moments(grad * np.asarray(transfer(grid)), truncation)
    _check_tail_decay(np.abs(coeffs), "limit-series", alpha)
    return coeffs


def compute_V_coeffs_mv(f: np.ndarray, truncation: int = 200,
                        alpha: float = 1.0) -> np.ndarray:
    """Coefficients ``c[t, i, j]`` of the vector-process stable series: the
    cosine moments of ``F = Psi* G Psi``, sampled as for :func:`compute_W_mv`
    (module docstring)."""
    coeffs = _cosine_moments(f, truncation)
    _check_tail_decay(np.abs(coeffs).reshape(truncation, -1).max(axis=1),
                      "limit-series", alpha)
    return coeffs


def _acf_limit(score: ScoreFunction, theta: np.ndarray, transfer: np.ndarray,
               quad_points: int, truncation: int, alpha):
    """``W`` and ``c_t`` of an autocorrelation score by the finite sums of
    the module docstring: the N-point rule of :func:`compute_W` and
    :func:`compute_V_coeffs`, with its half-resolution check, without a grid.
    ``theta`` holds the checked evaluation points, 0-d for one law and (B,)
    for a stack, with one ``alpha`` or one per law and one transfer or one
    row of them per law.  ``transfer`` holds the cosine coefficients
    ``r_0..r_H``.  ``W`` has the shape of ``theta``, and ``c_t`` gains a
    last axis of length T.
    """
    if score.lag is None:
        raise ValueError(f"the scalar limit law needs an autocorrelation score, "
                         f"got {score.name!r}")
    if quad_points < 32:
        raise ValueError("quad_points too small")
    lag, size = score.lag, transfer.shape[-1]
    k = np.arange(size + lag)
    r = np.zeros(transfer.shape[:-1] + (size + 2 * lag,))  # r_k, k = 0..H + 2 lag
    r[..., 0] = 1.0                              # the transfer is normalized
    r[..., 1:size] = transfer[..., 1:]
    unfolded = 2.0 * theta[..., None] * r[..., k] - r[..., np.abs(k - lag)] - r[..., k + lag]
    rows = unfolded.reshape(-1, k.size)
    lags = np.arange(1, truncation + 1)
    uu, picked = np.empty(len(rows)), np.empty((len(rows), truncation))
    # The laws are folded a few at a time into one buffer of about 256 KB,
    # so a stack never writes all of its N-wide rows at once.
    step = max(1, 2**15 // quad_points)
    fine = np.empty((min(step, len(rows)), quad_points))
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        u = folded_cosine_coeffs(part, quad_points, out=fine[:len(part)])
        part_uu = uu[start:start + step] = _row_dot(u, u)
        picked[start:start + step] = u[:, lags % quad_points]
        # With every lag below N/4 no slot of either fold takes two lags:
        # both hold the same squares, and the check can only see rounding.
        if 2 * (k.size - 1) >= quad_points // 2:
            coarse = folded_cosine_coeffs(part, quad_points // 2)
            for _ in np.flatnonzero(np.abs(part_uu - _row_dot(coarse, coarse))
                                    > 1e-6 * part_uu):
                warnings.warn("quadrature for W not converged at the requested grid; "
                              "increase quad_points", RuntimeWarning, stacklevel=2)
    # The rule's step, linspace's grid[1] - grid[0], is 2 pi / N only to
    # about 1e-13 relative; scaling by the ratio keeps W and c_t, and so
    # every threshold, equal to the rule's to rounding.
    scale = 2.0 * _grid_step(quad_points) * quad_points / (2.0 * np.pi)
    sign = np.where(lags % 2 == 1, -scale, scale)
    # contiguous rows, so that the sums over lags add as for one series
    coeffs = (sign * picked).reshape(unfolded.shape[:-1] + (truncation,))
    _check_tail_decay(np.abs(coeffs), "limit-series", alpha)
    return scale * uu.reshape(unfolded.shape[:-1]), coeffs


def _matrix_limit(config: "LimitLawConfig", theta: np.ndarray):
    """``W`` and ``c[t, i, j]`` of each matrix law of ``config`` at the
    checked points ``theta`` from one sample of ``Psi`` on the grid: each
    law reads its own ``F = Psi* G Psi`` (:func:`compute_W_mv`,
    :func:`compute_V_coeffs_mv`).  ``W`` has the shape of ``theta``, as in
    :func:`_acf_limit`.
    """
    grid = _uniform_grid(config.quad_points)
    psi = np.asarray(config.psi_matrix(grid))
    w, coeffs = [], []
    for value, alpha in zip(theta.reshape(-1).tolist(),
                            np.broadcast_to(config.alpha, theta.size).tolist()):
        f = _f_matrix(config.score, value, psi, grid)
        w.append(compute_W_mv(f))
        coeffs.append(compute_V_coeffs_mv(f, config.truncation, alpha))
    return np.reshape(w, theta.shape), np.reshape(coeffs, theta.shape + coeffs[0].shape)


@dataclass(frozen=True)
class Quantile:
    """A Monte-Carlo quantile with its bootstrap standard error."""

    p: float
    value: float
    reps: int
    stderr: float


@dataclass
class LimitLawConfig:
    """Everything needed to sample the limit statistic ``V**2 / W``.

    ``score`` has one parameter, so ``W`` is a number and ``V`` a scalar
    series; ``theta0`` is the one-element array of the evaluation point.
    ``transfer`` is the scalar normalized power transfer as the 1-d array of
    its cosine coefficients ``r_0..r_H``; for vector processes supply
    ``psi_matrix`` instead, which maps a frequency array to the
    ``(N, d, d)`` transfer matrices ``Psi`` (the power transfer is then
    ``Psi Psi*``), and the matrix series draws one SaS variable per
    (lag, i, j).

    A config may also hold a stack of B laws, which only
    :func:`prepare_limit` reads: ``theta0`` of shape (B, 1), ``alpha``
    one value or B of them, and for a scalar score one transfer or a
    (B, H + 1) array; the laws of a matrix score share ``psi_matrix``.
    """

    score: ScoreFunction
    theta0: np.ndarray
    alpha: float | np.ndarray
    transfer: np.ndarray | None = None
    psi_matrix: Callable | None = None
    truncation: int = 200
    quad_points: int = 4096
    reps: int = 100_000
    scale_convention: object = "davis-resnick"
    _prepared: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.score.is_matrix:
            if self.psi_matrix is None:
                raise ValueError("matrix scores need psi_matrix in the limit config")
        elif self.transfer is None:
            raise ValueError("scalar scores need transfer in the limit config")
        elif callable(self.transfer) or not 1 <= np.ndim(self.transfer) <= max(
                np.ndim(self.theta0), 1):  # a stack of laws may have one each
            raise ValueError("transfer must be the 1-d array of its cosine "
                             "coefficients r_0..r_H")
        else:
            self.transfer = np.asarray(self.transfer, dtype=float)


def prepare_limit(config: LimitLawConfig) -> dict:
    """Curvature, mixing coefficients, and the closure constant.

    Results are cached on the config; keys: ``w`` and ``w_inv`` (numbers;
    a zero ``w`` warns and takes the pseudo-inverse 0), ``coeffs`` ((T,) for
    a scalar score, (T, d, d) for a matrix one), ``mixing`` (the
    coefficients as one weight per SaS draw), and ``closure`` (the l^alpha
    norm of the mixing weights, the exact SaS scale of the series part of
    V).  A scalar score must be an autocorrelation score, whose law is
    computed in closed form (module docstring); others raise
    ``ValueError``.  A stack of B laws gives every value a leading axis of
    length B, and ``w``, ``w_inv`` and ``closure`` as (B,) arrays.
    """
    if config._prepared is not None:
        return config._prepared
    score = config.score
    theta0 = np.atleast_1d(config.theta0)
    lead = theta0.shape[:-1]                              # () for one law
    theta = np.reshape([score.check_theta(row)
                        for row in theta0.reshape(-1, theta0.shape[-1])], lead)
    if score.is_matrix:
        w, coeffs = _matrix_limit(config, theta)
    else:
        w, coeffs = _acf_limit(score, theta, config.transfer,
                               config.quad_points, config.truncation, config.alpha)
    mixing = coeffs.reshape(lead + (-1,))                 # one weight per SaS draw
    # the pseudo-inverse of a zero W is 0
    for _ in np.flatnonzero(w == 0.0):
        warnings.warn("W matrix is ill-conditioned (cond inf); using a "
                      "pseudo-inverse", RuntimeWarning, stacklevel=3)
    with np.errstate(divide="ignore"):
        w_inv = np.where(w == 0.0, 0.0, 1.0 / w)
    sums = np.sum(np.abs(mixing) ** np.asarray(config.alpha)[..., None], axis=-1)
    # the root of each law is a scalar power, as for one law
    closure = np.array([float(total ** (1.0 / alpha)) for total, alpha in
                        zip(sums.reshape(-1), np.broadcast_to(config.alpha, sums.size))])
    closure = closure.reshape(lead)
    if not lead:
        w, w_inv, closure = float(w), float(w_inv), float(closure)
    prepared = {"w": w, "w_inv": w_inv, "coeffs": coeffs, "mixing": mixing,
                "closure": closure}
    config._prepared = prepared
    return prepared


def _draw_ratio_series(config, prepared, rng, size) -> np.ndarray:
    """Draw ``size`` realizations of V via the full stable series."""
    s_mult, s0_mult = scale_multipliers(config.alpha, config.scale_convention)
    mixing = prepared["mixing"]
    n_terms = mixing.size
    out = np.empty(size)
    params = StableParams(alpha=config.alpha)
    done = 0
    while done < size:
        block = min(_SAMPLE_BLOCK, size - done)
        s0 = s0_mult * sample_positive_stable(config.alpha / 2.0, block, rng)
        series = s_mult * sample_sas(params, block * n_terms, rng)
        series = series.reshape(block, n_terms)
        out[done:done + block] = (series @ mixing) / s0
        done += block
    return out


def sample_limit_stat(config: LimitLawConfig, rng: np.random.Generator,
                      size: int | None = None) -> np.ndarray:
    """Draw realizations of the limit statistic ``V**2 / W``."""
    prepared = prepare_limit(config)
    n = config.reps if size is None else int(size)
    v = _draw_ratio_series(config, prepared, rng, n)
    return v * prepared["w_inv"] * v


def sample_limit_stat_simplified(config: LimitLawConfig, rng: np.random.Generator,
                                 size: int | None = None) -> np.ndarray:
    """Shortcut using the exact stability of the series.

    The weighted series of i.i.d. SaS variables collapses in distribution
    to one SaS draw scaled by the l^alpha norm of the weights, so the
    statistic equals ``(S_1 / S_0)**2 K**2 / W`` with
    ``K = (sum |c|**alpha)**(1/alpha)``.
    """
    prepared = prepare_limit(config)
    n = config.reps if size is None else int(size)
    ratio = sample_stable_ratio(config.alpha, n, rng, config.scale_convention)
    return ratio ** 2 * prepared["closure"] ** 2 * prepared["w_inv"]


def _bootstrap_quantile_stderr(sorted_draws: np.ndarray, p: float,
                               rng: np.random.Generator, n_boot: int = 200) -> float:
    """Std. error of an empirical quantile via the order-statistic bootstrap.

    The p-quantile of a bootstrap resample is an order statistic of the
    original sample with binomially distributed rank, so resampling reduces
    to drawing ranks.
    """
    n = sorted_draws.size
    ranks = rng.binomial(n, p, size=n_boot)
    ranks = np.clip(ranks, 0, n - 1)
    return float(np.std(sorted_draws[ranks]))


def mc_quantile(config: LimitLawConfig, p: float, rng: np.random.Generator) -> Quantile:
    """Monte-Carlo p-quantile of the limit statistic (the EL threshold)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    draws = np.sort(sample_limit_stat(config, rng))
    value = float(np.quantile(draws, p))
    stderr = _bootstrap_quantile_stderr(draws, p, rng)
    return Quantile(p=p, value=value, reps=draws.size, stderr=stderr)


def sample_stable_ratio(alpha: float, reps: int, rng: np.random.Generator,
                        scale_convention="davis-resnick") -> np.ndarray:
    """Draw the calibrated ratio ``S_1 / S_0`` underlying every limit law."""
    s_mult, s0_mult = scale_multipliers(alpha, scale_convention)
    s0 = sample_positive_stable(alpha / 2.0, reps, rng)
    s0 *= s0_mult
    s1 = sample_sas(StableParams(alpha=alpha), reps, rng)
    s1 *= s_mult
    s1 /= s0
    return s1


def ratio_quantiles(alpha: float, level: float, reps: int, rng: np.random.Generator,
                    scale_convention) -> tuple[float, float]:
    """The ``level``-quantiles of ``reps`` stable ratio draws from ``rng``:
    of their squares (the EL threshold's) and of their absolute values (the
    SAC half-width's).

    Both interpolate, as :func:`numpy.quantile` does, between the same two
    order statistics of the absolute draws, the k-th and the next with
    ``k = floor(level (reps - 1))``: one partition finds both, and squaring
    keeps their order.  ``reps`` is at least 2 and ``level`` in [0, 1).
    """
    draws = sample_stable_ratio(alpha, reps, rng, scale_convention)
    np.abs(draws, out=draws)
    position = (reps - 1) * level
    k = int(position)
    draws.partition(k)
    pair = np.array([draws[k], draws[k + 1:].min()])
    weight = position - k
    return float(np.quantile(pair ** 2, weight)), float(np.quantile(pair, weight))


def sac_series_constant(rho: Callable | np.ndarray, l: int, alpha: float,
                        truncation: int = 200) -> float:
    """Aggregated scale of the sample-autocorrelation limit law.

    ``K = { sum_{j>=1} |rho(l+j) + rho(l-j) - 2 rho(j) rho(l)|**alpha }**(1/alpha)``.
    ``rho`` may be a callable, evaluated once at each lag ``0..l+truncation``,
    or an array of autocorrelations indexed by lag, zero past its end.
    """
    size = l + truncation + 1
    if callable(rho):
        values = np.array([rho(k) for k in range(size)], dtype=float)
    else:
        given = np.asarray(rho, dtype=float)[:size]
        values = np.zeros(size)
        values[:given.size] = given
    j = np.arange(1, truncation + 1)
    terms = values[l + j] + values[np.abs(l - j)] - 2.0 * values[j] * values[l]
    _check_tail_decay(np.abs(terms), "sample-autocorrelation",
                      advice="with sample autocorrelations this is their noise "
                             "floor, which does not decay with the lag")
    return float(np.sum(np.abs(terms) ** alpha) ** (1.0 / alpha))

