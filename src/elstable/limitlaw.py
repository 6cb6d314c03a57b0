"""Monte-Carlo machinery for the heavy-tail limit law of the EL statistic.

Under the null the normalized EL statistic converges to ``V' W^-1 V`` where
``W`` is a deterministic matrix of transfer-weighted score products and ``V``
mixes an infinite series of i.i.d. SaS variables ``S_t`` against one positive
``alpha/2``-stable variable ``S_0``:

    V_j = sum_{t>=1} (S_t / S_0) * c[t, j],
    c[t, j] = (1/pi) * integral  d(1/f)/d theta_j |_(theta_0) g(omega) cos(t omega) d omega,
    W_jk = (1/2pi) * integral  d(1/f)/d theta_j d(1/f)/d theta_k 2 g(omega)**2 d omega.

The matrix (vector-process) analogue replaces ``c`` by coefficients indexed
by lag and innovation coordinates, with ``F_k = Psi* (d(1/f)/d theta_k) Psi``:

    c[t, i, j, k] = (1/pi) * integral Re{ F_k(omega)_(ij) e^(i t omega) } d omega.

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

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import TruncationWarning
from .processes import StableParams, sample_positive_stable, sample_sas
from .scores import ScoreFunction, check_alpha

_SAMPLE_BLOCK = 20_000  # stable draws are generated in blocks of this many reps


def tail_constant(alpha: float) -> float:
    """Tail constant ``C_alpha`` with ``P(|Z| > x) ~ C_alpha * sigma * x**-alpha``."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"tail constant defined for alpha in (0, 2), got {alpha}")
    if alpha == 1.0:
        return 2.0 / np.pi
    return (1.0 - alpha) / (gamma_fn(2.0 - alpha) * np.cos(np.pi * alpha / 2.0))


def scale_multipliers(alpha: float, convention="davis-resnick") -> tuple[float, float]:
    """Multipliers applied to the unit-scale stable draws ``(S_t, S_0)``.

    ``"davis-resnick"`` is the default calibration described in the module
    docstring; ``"unit"`` leaves both draws at unit scale; a pair of floats
    is passed through unchanged.
    """
    if isinstance(convention, str):
        if convention == "davis-resnick":
            return (tail_constant(alpha) ** (-1.0 / alpha),
                    gamma_fn(1.0 - alpha / 2.0) ** (2.0 / alpha))
        if convention == "unit":
            return 1.0, 1.0
        raise ValueError(f"unknown scale convention {convention!r}")
    s_mult, s0_mult = (float(convention[0]), float(convention[1]))
    if s_mult <= 0 or s0_mult <= 0:
        raise ValueError("scale multipliers must be positive")
    return s_mult, s0_mult


def _uniform_grid(quad_points: int) -> np.ndarray:
    if quad_points < 16:
        raise ValueError("quad_points too small")
    return np.linspace(-np.pi, np.pi, quad_points + 1)


def _trapezoid(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    h = grid[1] - grid[0]
    return h * (values[..., :].sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))


def _trapezoid_checked(integrand: Callable, quad_points: int) -> np.ndarray:
    """Trapezoid rule of ``integrand(grid)`` over the periodic grid.

    The result is cross-checked at half resolution.  For an even number of
    points the coarse grid is the even-indexed subgrid (``linspace`` makes
    them equal bit for bit), so the integrand is evaluated only once.
    """
    grid = _uniform_grid(quad_points)
    values = integrand(grid)
    coarse_grid = _uniform_grid(quad_points // 2)
    if np.array_equal(coarse_grid, grid[::2]):
        coarse = values[..., ::2]
    else:
        coarse = integrand(coarse_grid)
    total = _trapezoid(values, grid)
    scale = np.max(np.abs(total)) + 1e-300
    if np.max(np.abs(total - _trapezoid(coarse, coarse_grid))) > 1e-6 * scale:
        warnings.warn("quadrature for W not converged at the requested grid; "
                      "increase quad_points", RuntimeWarning, stacklevel=3)
    return total


def compute_W(score: ScoreFunction, theta0, transfer: Callable,
              quad_points: int = 4096) -> np.ndarray:
    """Scalar-process curvature matrix ``W`` at ``theta0``.

    ``transfer`` maps a frequency array to normalized power-transfer values.
    The trapezoid rule on a uniform grid is spectrally accurate for these
    periodic integrands; the result is cross-checked at half resolution.
    """
    theta0 = score.check_theta(theta0)

    def integrand(grid):
        grad = np.asarray(score.grad_inv(grid, theta0))
        weight = 2.0 * np.asarray(transfer(grid)) ** 2
        return grad[:, None, :] * grad[None, :, :] * weight

    w = _trapezoid_checked(integrand, quad_points) / (2.0 * np.pi)
    return 0.5 * (w + w.T)


def compute_W_mv(score: ScoreFunction, theta0, transfer_matrix: Callable,
                 quad_points: int = 4096) -> np.ndarray:
    """Vector-process curvature matrix.

    ``transfer_matrix`` maps a frequency array to ``(N, d, d)`` Hermitian
    power-transfer matrices ``g(omega)``; the integrand combines the two
    trace forms ``tr[g G_a g G_b] + tr[g G_a] tr[g G_b]`` and the result is
    divided by ``2 pi d**2``.
    """
    theta0 = score.check_theta(theta0)
    d = score.dim

    def integrand(grid):
        grad = np.asarray(score.grad_inv(grid, theta0))    # (q, N, d, d)
        g = np.asarray(transfer_matrix(grid))              # (N, d, d)
        gg = np.einsum("tab,qtbc->qtac", g, grad)          # g @ G_k per frequency
        traces = np.einsum("qtaa->qt", gg)
        pair = np.einsum("qtab,rtba->qrt", gg, gg) + traces[:, None, :] * traces[None, :, :]
        return pair.real

    w = _trapezoid_checked(integrand, quad_points) / (2.0 * np.pi * d * d)
    return 0.5 * (w + w.T)


def _check_tail_decay(norms: np.ndarray, what: str, alpha: float = 1.0) -> None:
    # The series constant is (sum |c_t|^alpha)^(1/alpha), so the relevant
    # truncation error is the share of that mass sitting in the last decile
    # of retained lags; tiny non-decaying ripples are harmless.
    t = norms.size
    if t < 20:
        return
    decile = max(1, t // 10)
    mass = np.sum(norms ** alpha) + 1e-300
    tail_share = np.sum(norms[-decile:] ** alpha) / mass
    last = norms[-decile:].max()
    prev = norms[-2 * decile:-decile].max()
    if tail_share > 0.01 and last >= prev:
        warnings.warn(f"{what} coefficients are not decaying at the truncation "
                      f"point (last decile holds {tail_share:.2%} of the "
                      f"series mass); increase the truncation order",
                      TruncationWarning, stacklevel=3)


def compute_V_coeffs(score: ScoreFunction, theta0, transfer: Callable,
                     truncation: int = 200, quad_points: int = 4096,
                     alpha: float = 1.0) -> np.ndarray:
    """Coefficients ``c[t, j]`` of the stable series in ``V`` (t = 1..T).

    ``alpha`` only tunes the truncation diagnostic (the coefficients enter
    the limit series through ``sum |c_t|^alpha``).
    """
    theta0 = score.check_theta(theta0)
    grid = _uniform_grid(quad_points)
    grad = np.asarray(score.grad_inv(grid, theta0))        # (q, N + 1)
    weight = grad * np.asarray(transfer(grid))             # (q, N + 1)
    # Trapezoid rule as a DFT: with omega_j = -pi + 2 pi j / N and equal
    # cosines at both ends, sum_j w_j cos(t omega_j) = (-1)**t Re fft(w)[t],
    # where the first sample carries the mean of the two endpoint weights.
    periodic = weight[:, :-1].copy()
    periodic[:, 0] = 0.5 * (weight[:, 0] + weight[:, -1])
    lags = np.arange(1, truncation + 1)
    sums = np.fft.fft(periodic, axis=-1).real[:, lags % quad_points]
    sums[:, lags % 2 == 1] *= -1.0
    coeffs = (grid[1] - grid[0]) * sums.T / np.pi
    _check_tail_decay(np.abs(coeffs).max(axis=1), "limit-series", alpha)
    return coeffs


def compute_V_coeffs_mv(score: ScoreFunction, theta0, psi_matrix: Callable,
                        truncation: int = 200, quad_points: int = 4096,
                        alpha: float = 1.0) -> np.ndarray:
    """Coefficients ``c[t, i, j, k]`` of the vector-process stable series.

    ``psi_matrix`` maps a frequency array to the ``(N, d, d)`` transfer
    matrices ``Psi(omega)`` (not the power transfer): the coefficients are
    integrals of ``Re{ (Psi* G_k Psi)_(ij) e^(i t omega) }``.
    """
    theta0 = score.check_theta(theta0)
    grid = _uniform_grid(quad_points)
    grad = np.asarray(score.grad_inv(grid, theta0))        # (q, N, d, d)
    psi = np.asarray(psi_matrix(grid))                     # (N, d, d)
    psi_h = np.conj(np.swapaxes(psi, -1, -2))
    f_mid = np.einsum("tab,qtbc,tcd->qtad", psi_h, grad, psi)   # F_k(omega)
    lags = np.arange(1, truncation + 1)
    phases = np.exp(1j * np.outer(lags, grid))             # (T, N)
    integrand = (f_mid[None, :, :, :, :] * phases[:, None, :, None, None]).real
    coeffs = _trapezoid(np.moveaxis(integrand, 2, -1), grid) / np.pi  # (T, q, d, d)
    coeffs = np.moveaxis(coeffs, 1, -1)                    # (T, d, d, q)
    _check_tail_decay(np.abs(coeffs).reshape(truncation, -1).max(axis=1),
                      "limit-series", alpha)
    return coeffs


@dataclass(frozen=True)
class Quantile:
    """A Monte-Carlo quantile with its bootstrap standard error."""

    p: float
    value: float
    reps: int
    stderr: float


@dataclass
class LimitLawConfig:
    """Everything needed to sample the limit statistic ``V' W^-1 V``.

    ``transfer`` is the scalar normalized-power-transfer callable; for
    vector processes supply ``psi_matrix`` instead (``transfer`` is then
    derived as ``Psi Psi*``).  ``dependence`` picks the joint law of the
    matrix-series entries: ``"independent"`` (default) draws one SaS
    variable per (lag, i, j), ``"common"`` shares a single variable per lag.
    """

    score: ScoreFunction
    theta0: np.ndarray
    alpha: float
    transfer: Callable | None = None
    psi_matrix: Callable | None = None
    truncation: int = 200
    quad_points: int = 4096
    reps: int = 100_000
    scale_convention: object = "davis-resnick"
    dependence: str = "independent"
    _prepared: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.score.is_matrix:
            if self.psi_matrix is None:
                raise ValueError("matrix scores need psi_matrix in the limit config")
        elif self.transfer is None:
            raise ValueError("scalar scores need transfer in the limit config")
        if self.dependence not in ("independent", "common"):
            raise ValueError(f"unknown dependence {self.dependence!r}")


def prepare_limit(config: LimitLawConfig) -> dict:
    """Curvature, mixing coefficients, and the q = 1 closure constant.

    Results are cached on the config; keys: ``w``, ``w_inv``, ``coeffs``,
    ``mixing``, and ``closure`` (the l^alpha norm of the mixing weights, the
    exact SaS scale of the series part of V when q = 1, else None).
    """
    if config._prepared is not None:
        return config._prepared
    score = config.score
    if score.is_matrix:
        def transfer_matrix(grid):
            psi = np.asarray(config.psi_matrix(grid))
            return psi @ np.conj(np.swapaxes(psi, -1, -2))

        w = compute_W_mv(score, config.theta0, transfer_matrix, config.quad_points)
        coeffs = compute_V_coeffs_mv(score, config.theta0, config.psi_matrix,
                                     config.truncation, config.quad_points,
                                     config.alpha)
        flat = coeffs.reshape(config.truncation, -1, score.q)  # (T, d*d, q)
        if config.dependence == "common":
            flat = flat.sum(axis=1, keepdims=True)
        mixing = flat.reshape(-1, score.q)                     # one row per SaS draw
    else:
        w = compute_W(score, config.theta0, config.transfer, config.quad_points)
        coeffs = compute_V_coeffs(score, config.theta0, config.transfer,
                                  config.truncation, config.quad_points,
                                  config.alpha)
        mixing = coeffs
    cond = np.linalg.cond(w)
    if cond > 1e12:
        warnings.warn(f"W matrix is ill-conditioned (cond {cond:.2e}); using a "
                      "pseudo-inverse", RuntimeWarning, stacklevel=3)
        w_inv = np.linalg.pinv(w)
    else:
        w_inv = np.linalg.inv(w)
    closure = float(np.sum(np.abs(mixing) ** config.alpha, axis=0)[0]
                    ** (1.0 / config.alpha)) if score.q == 1 else None
    prepared = {"w": w, "w_inv": w_inv, "coeffs": coeffs, "mixing": mixing,
                "closure": closure}
    config._prepared = prepared
    return prepared


def _draw_ratio_series(config, prepared, rng, size) -> np.ndarray:
    """Draw ``size`` realizations of V via the full stable series."""
    s_mult, s0_mult = scale_multipliers(config.alpha, config.scale_convention)
    mixing = prepared["mixing"]
    n_terms, q = mixing.shape
    out = np.empty((size, q))
    params = StableParams(alpha=config.alpha)
    done = 0
    while done < size:
        block = min(_SAMPLE_BLOCK, size - done)
        s0 = s0_mult * sample_positive_stable(config.alpha / 2.0, block, rng)
        series = s_mult * sample_sas(params, block * n_terms, rng)
        series = series.reshape(block, n_terms)
        out[done:done + block] = (series @ mixing) / s0[:, None]
        done += block
    return out


def sample_limit_stat(config: LimitLawConfig, rng: np.random.Generator,
                      size: int | None = None) -> np.ndarray:
    """Draw realizations of the limit statistic ``V' W^-1 V``."""
    prepared = prepare_limit(config)
    n = config.reps if size is None else int(size)
    v = _draw_ratio_series(config, prepared, rng, n)
    return np.einsum("rj,jk,rk->r", v, prepared["w_inv"], v)


def sample_limit_stat_simplified(config: LimitLawConfig, rng: np.random.Generator,
                                 size: int | None = None) -> np.ndarray:
    """Single-parameter shortcut using the exact stability of the series.

    For q = 1 the weighted series of i.i.d. SaS variables collapses in
    distribution to one SaS draw scaled by the l^alpha norm of the weights,
    so the statistic equals ``(S_1 / S_0)**2 K**2 / W`` with
    ``K = (sum |c|**alpha)**(1/alpha)``.
    """
    prepared = prepare_limit(config)
    if config.score.q != 1:
        raise ValueError("the simplified sampler applies only to q = 1")
    n = config.reps if size is None else int(size)
    s_mult, s0_mult = scale_multipliers(config.alpha, config.scale_convention)
    s0 = s0_mult * sample_positive_stable(config.alpha / 2.0, n, rng)
    s1 = s_mult * sample_sas(StableParams(alpha=config.alpha), n, rng)
    k = prepared["closure"]
    return (s1 / s0) ** 2 * k ** 2 * prepared["w_inv"][0, 0]


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
    """Draw the calibrated ratio ``S_1 / S_0`` underlying every q = 1 law."""
    s_mult, s0_mult = scale_multipliers(alpha, scale_convention)
    s0 = s0_mult * sample_positive_stable(alpha / 2.0, reps, rng)
    s1 = s_mult * sample_sas(StableParams(alpha=alpha), reps, rng)
    return s1 / s0


def sac_series_constant(rho: Callable | np.ndarray, l: int, alpha: float,
                        truncation: int = 200) -> float:
    """Aggregated scale of the sample-autocorrelation limit law.

    ``K = { sum_{j>=1} |rho(l+j) + rho(l-j) - 2 rho(j) rho(l)|**alpha }**(1/alpha)``.
    ``rho`` may be a callable or an array of autocorrelations indexed by lag.
    """
    if callable(rho):
        rho_fn = rho
    else:
        values = np.asarray(rho, dtype=float)

        def rho_fn(k):
            k = abs(int(k))
            return float(values[k]) if k < values.size else 0.0

    j = np.arange(1, truncation + 1)
    terms = np.array([rho_fn(l + jj) + rho_fn(abs(l - jj)) - 2.0 * rho_fn(jj) * rho_fn(l)
                      for jj in j])
    _check_tail_decay(np.abs(terms), "sample-autocorrelation")
    return float(np.sum(np.abs(terms) ** alpha) ** (1.0 / alpha))

