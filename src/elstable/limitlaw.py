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

Ratio thresholds from a prefilter.  Every EL and SAC threshold reads one
level-quantile of ``|S_1 / S_0|`` over ``reps`` draws, and so only two
of their order statistics (:func:`ratio_quantiles`).  Those two must equal
what the samplers compute in float64; the others need only be placed on
the right side of them.  In ``a = alpha / 2``, the angles ``U`` and ``phi``
and the exponentials ``W_0`` and ``W_1`` of the two samplers,

    log |S_1 / S_0| = log s - log s_0 + log |sin(alpha phi)|
        - log cos(phi) / alpha + (1/alpha - 1) (log cos((1 - alpha) phi) - log W_1)
        - log sin(a U) + log sin(U) / a - ((1 - a)/a) (log sin((1 - a) U) - log W_0),

a sum of terms ``c log sin r`` and ``c log W``.  The prefilter evaluates it
in float32, from the same float64 angles the samplers take the sine and
cosine of.  Each angle is first reduced to ``r`` in [0, pi/2] in float64:
``sin t = sin(pi - t)`` and ``cos t = sin(pi/2 - |t|)``, where the
differences are exact (Sterbenz) and the low part of pi is added.  Only
then is ``r`` rounded to float32, to within 3 2^-24 relative.  numpy's
float32 ``sin`` is within 2 ULP and its ``log`` within 4 ULP (its
accuracy validation set), and ``d log sin r / d log r = r cot r`` lies in
[0, 1].  So a term is off by at most ``|c| (2^-22 + 3 2^-24)`` plus
``2^-21`` of ``|c log|``, and an exponential's term by less.  The float32
exponents, products and sums add ``10 2^-24`` of ``T = sum |c log|``, and
``2^-23`` of ``|log s - log s_0|``.

A draw whose ``|log|`` terms sum past ``L = 44``, or whose estimate is not
finite, is computed exactly up front.  For every other draw each reduced
angle is above ``e^-44``: float32 keeps it normal, and the low part of pi
is exact to 1e-13 of it.  ``T`` is at most ``L max |c|``, and ``L`` falls
below 44 where ``L max |c| + |log s| + |log s_0| <= 600`` needs it (for
``alpha < 0.147`` at moderate multipliers), which keeps every float64
intermediate of the samplers and of their ratio normal.  Multipliers too
large or small for any ``L`` leave every draw to float64.  An estimate is
therefore within

    E = (2^-22 + 3 2^-24 + 2^-40) sum |c| + (2^-21 + 10 2^-24) L max |c|
        + 2^-23 |log s - log s_0|

of the log of the float64 draw, the ``2^-40`` covering the float64 side.
``E`` is 6.5e-5 at ``alpha = 1.5``; over 10^6 draws at each of six alphas
the largest error seen is under 5 % of it.

Only the draws within ``M = 100 E`` of the estimates' k-th and next values
are computed in float64, by the samplers' own transforms, which give any
subset of the draws the same bits.  At ``alpha = 1.5`` and 100 000 draws
that is 20 to 400 of them.  The estimates come in blocks of 4096 draws and
are not kept: the first block, an i.i.d. sample, brackets the two ranks to
8 binomial standard deviations, and only the estimates in the bracket are.
The window's check: its float64 k-th value must lie more than ``E`` above
its lower edge and the next more than ``E`` below its upper edge, at the
ranks its draws have among all.  Then every draw outside the window lies
on its own side of the pair, which is therefore the pair of all the draws.
When the check fails, or a draw is nan, every draw is computed in float64,
as the samplers would.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import TruncationWarning
from .processes import StableParams, _cms, _kanter, sample_positive_stable, sample_sas
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
    multipliers = scale_multipliers(alpha, scale_convention)
    return _ratio(alpha, multipliers, _ratio_draws(alpha, reps, rng))


def _ratio_draws(alpha: float, reps: int, rng: np.random.Generator) -> tuple:
    """The raw draws of ``reps`` ratios in the samplers' order: Kanter's
    uniforms and exponentials for ``S_0``, then the Chambers-Mallows-Stuck
    uniforms and, but at ``alpha = 1``, exponentials for ``S_1``."""
    if not 0.0 < alpha < 2.0:
        raise ValueError(f"the stable ratio needs alpha in (0, 2), got {alpha}")
    # One block: the allocator keeps it from call to call, where four
    # arrays of this size went back to the system and were faulted in anew.
    draws = np.empty((3 if alpha == 1.0 else 4, reps))
    rng.random(out=draws[0])
    rng.standard_exponential(out=draws[1])
    rng.random(out=draws[2])
    if alpha == 1.0:
        return (*draws, None)
    rng.standard_exponential(out=draws[3])
    return tuple(draws)


def _ratio(alpha: float, multipliers: tuple, draws: tuple) -> np.ndarray:
    """``S_1 / S_0`` of the draws, overwriting them: the ratio of
    :func:`sample_sas` and :func:`sample_positive_stable` at unit scale times
    the multipliers, to the bit, for the draws or any subset of them."""
    u0, w0, u1, w1 = draws
    s0 = _kanter(alpha / 2.0, u0, w0)
    s0 *= multipliers[1]
    s1 = _cms(alpha, u1, w1)
    s1 *= multipliers[0]
    s1 /= s0
    return s1


def _subset(draws: tuple, index: np.ndarray) -> tuple:
    """The draws at ``index``, in the layout of :func:`_ratio_draws`."""
    return tuple(None if d is None else d[index] for d in draws)


def _order_pair(values: np.ndarray, rank: int) -> np.ndarray:
    """The ``rank``-th smallest of ``|values|`` and the next, a nan sorting
    last; ``values`` is overwritten."""
    np.abs(values, out=values)
    values.partition(rank)
    return np.array([values[rank], values[rank + 1:].min()])


_PI_LO = 1.2246467991473532e-16      # pi - np.pi
_HALF_PI_LO = 6.123233995736766e-17  # pi/2 - np.pi/2
# Error bound of the prefilter (module docstring): per unit of |exponent|,
# the float32 sin (2 ULP), the reduced angle in float32 and float64 slack;
# per unit of sum |exponent log|, the float32 log (4 ULP) and the float32
# exponents, products and sums.
_SIN_ERROR = 2.0 ** -22 + 3 * 2.0 ** -24 + 2.0 ** -40
_LOG_ERROR = 2.0 ** -21 + 10 * 2.0 ** -24
_LOG_LIMIT = 44.0        # a draw whose |log|s sum past this is computed up front
_MARGIN = 100.0          # the window reaches this many error bounds past the pair
_PREFILTER_BLOCK = 4096  # draws per prefilter block


def _log_exponents(alpha: float) -> np.ndarray:
    """Exponents of the terms of ``log |S_1 / S_0|``: the log-sines of
    ``aU``, ``U``, ``(1 - a) U`` and ``|alpha phi|``, the log-cosines of
    ``phi`` and ``(1 - alpha) phi`` and the log-exponentials ``W_0`` and
    ``W_1``, with ``a = alpha / 2``; at ``alpha = 1`` the two terms of
    ``(1 - alpha) phi`` and ``W_1`` are gone."""
    a = alpha / 2.0
    power = 1.0 / alpha - 1.0
    exponents = [-1.0, 1.0 / a, -(1.0 - a) / a, 1.0, -1.0 / alpha, power,
                 (1.0 - a) / a, -power]
    if alpha == 1.0:
        del exponents[7], exponents[5]
    return np.array(exponents)


def _prefilter_bounds(alpha: float, multipliers: tuple) -> tuple[float, float, float]:
    """The prefilter's shift ``log s - log s_0``, its limit ``L`` on the sum
    of a draw's |log|s and its error bound ``E`` (module docstring)."""
    exponents = np.abs(_log_exponents(alpha))
    logs = [math.log(multiplier) for multiplier in multipliers]
    limit = min(_LOG_LIMIT, (600.0 - abs(logs[0]) - abs(logs[1])) / exponents.max())
    shift = logs[0] - logs[1]
    bound = (_SIN_ERROR * exponents.sum() + _LOG_ERROR * exponents.max() * limit
             + 2.0 ** -23 * abs(shift))
    return shift, limit, float(bound)


def _ratio_logs(alpha: float, draws: tuple, shift: float, limit: float):
    """Yield ``(start, z)`` for each block of :data:`_PREFILTER_BLOCK`
    draws: ``z`` holds the float32 estimates ``shift + sum(exponent log)``
    of ``log |S_1 / S_0|`` for the draws from ``start`` on, nan where an
    estimate is not finite or its |log|s sum past ``limit`` (module
    docstring).  The next block overwrites ``z``."""
    u0, w0, u1, w1 = draws
    a = alpha / 2.0
    exponentials = [w for w in (w0, w1) if w is not None]
    exponents = _log_exponents(alpha).astype(np.float32)
    trig = exponents.size - len(exponentials)
    # the log of a sine is at most 0, so its |log| is minus the log
    signs = np.where(np.arange(exponents.size) < trig, -1.0, 1.0).astype(np.float32)
    shift, reps = np.float32(shift), u0.size
    size = min(_PREFILTER_BLOCK, reps)
    angles, scratch = np.empty((trig, size)), np.empty((4, size), dtype=np.float32)
    logs = np.empty((exponents.size, size), dtype=np.float32)
    estimates, totals = np.empty(size, dtype=np.float32), np.empty(size, dtype=np.float32)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, reps, _PREFILTER_BLOCK):
            stop = min(start + _PREFILTER_BLOCK, reps)
            n = stop - start
            t, tmp, ell = angles[:, :n], scratch[:, :n], logs[:, :n]
            # the angles of the samplers, in float64 and in the same order
            np.multiply(u0[start:stop], np.pi, out=t[1])
            np.multiply(a, t[1], out=t[0])
            np.multiply(1.0 - a, t[1], out=t[2])
            np.subtract(u1[start:stop], 0.5, out=t[4])
            t[4] *= np.pi
            np.multiply(alpha, t[4], out=t[3])
            np.abs(t[3], out=t[3])
            if w1 is not None:
                np.multiply(1.0 - alpha, t[4], out=t[5])
            # sin t = sin(pi - t) and cos t = sin(pi/2 - |t|), reduced to
            # [0, pi/2] in float64 before the float32 sin
            np.subtract(np.pi, t[:4], out=tmp)
            tmp += np.float32(_PI_LO)
            ell[:4] = t[:4]
            np.minimum(ell[:4], tmp, out=ell[:4])
            cosines = t[4:]
            np.abs(cosines, out=cosines)
            np.subtract(np.pi / 2.0, cosines, out=cosines)
            np.add(cosines, _HALF_PI_LO, out=ell[4:trig])
            np.sin(ell[:trig], out=ell[:trig])
            for row, w in enumerate(exponentials, trig):
                ell[row] = w[start:stop]
            np.log(ell, out=ell)
            z, q = estimates[:n], totals[:n]
            np.einsum("j,jn->n", exponents, ell, out=z)
            z += shift
            np.abs(ell[trig:], out=ell[trig:])
            np.einsum("j,jn->n", signs, ell, out=q)
            np.copyto(z, np.nan, where=q > limit)
            yield start, z


def _bracket(sample: np.ndarray, k: int, reps: int, margin: float) -> tuple[float, float]:
    """float32 bounds that hold the estimates of ranks k and k + 1 of all
    ``reps`` draws, and ``margin`` more, from the estimates of an i.i.d.
    sample of them: the sample's order statistics 8 binomial standard
    deviations and 2 ranks either side of the sample rank of k, and as many
    more below as the sample has nan estimates, whose draws may lie anywhere."""
    sample = np.sort(sample).astype(float)  # nan last
    unknown = np.count_nonzero(np.isnan(sample))
    p = (k + 1.0) / reps
    spread = 8.0 * math.sqrt(sample.size * p * (1.0 - p)) + 2.0
    lo = math.floor(p * sample.size - spread) - unknown
    hi = math.ceil(p * sample.size + spread)
    low = float(np.float32(sample[lo] - margin)) if lo >= 0 else -math.inf
    high = float(np.float32(sample[hi] + margin)) if hi < sample.size - unknown else math.inf
    return low, high


def _window_pair(alpha: float, multipliers: tuple, draws: tuple, k: int):
    """The k-th smallest ``|S_1 / S_0|`` of the draws and the next, from the
    float64 values of only the draws whose estimates lie within the margin
    of the estimates' own pair; ``None`` when the check of the window fails
    (module docstring)."""
    shift, limit, bound = _prefilter_bounds(alpha, multipliers)
    if limit <= 0.0:  # multipliers that alone leave the float64 range
        return None
    margin = _MARGIN * bound
    below, index, logs, exact = 0, [], [], []
    for start, z in _ratio_logs(alpha, draws, shift, limit):
        if start == 0:  # the first block is an i.i.d. sample of the draws
            low, high = _bracket(z, k, draws[0].size, margin)
        below += np.count_nonzero(z < low)
        keep = np.flatnonzero((z >= low) & (z <= high))
        index.append(keep + start)
        logs.append(z[keep])
        if np.isnan(z).any():
            exact.append(np.flatnonzero(np.isnan(z)) + start)
    if exact:  # the draws the prefilter cannot place, computed up front
        exact = np.concatenate(exact)
        values = np.abs(_ratio(alpha, multipliers, _subset(draws, exact)))
        if np.isnan(values).any():
            return None
        with np.errstate(divide="ignore"):
            z = np.log(values)
        below += np.count_nonzero(z < low)
        keep = (z >= low) & (z <= high)
        index.append(exact[keep])
        logs.append(z[keep])
    index, z = np.concatenate(index), np.concatenate(logs).astype(float)
    rank = k - below
    if not 0 <= rank < z.size - 1:
        return None
    part = np.partition(z, rank)
    low = max(low, part[rank] - margin)
    high = min(high, part[rank + 1:].min() + margin)
    rank -= np.count_nonzero(z < low)
    window = index[(z >= low) & (z <= high)]
    pair = _order_pair(_ratio(alpha, multipliers, _subset(draws, window)), rank)
    with np.errstate(divide="ignore"):
        edges = np.log(pair)
    return pair if edges[0] > low + bound and edges[1] < high - bound else None


def ratio_quantiles(alpha: float, level: float, reps: int, rng: np.random.Generator,
                    scale_convention) -> tuple[float, float]:
    """The ``level``-quantiles of ``reps`` stable ratio draws from ``rng``:
    of their squares (the EL threshold's) and of their absolute values (the
    SAC half-width's).

    Both interpolate, as :func:`numpy.quantile` does, between the same two
    order statistics of the absolute draws, the k-th and the next with
    ``k = floor(level (reps - 1))``, and squaring keeps their order.  Only
    these two must be exact: a float32 prefilter places every draw to within
    a proven bound, and only the draws near the pair are computed in float64
    (module docstring); when the check of the window fails, every draw is.
    The result, and the state ``rng`` is left in, equal those of
    ``sample_stable_ratio`` to the bit.  ``reps`` is at least 2 and
    ``level`` in [0, 1).
    """
    multipliers = scale_multipliers(alpha, scale_convention)
    draws = _ratio_draws(alpha, reps, rng)
    position = (reps - 1) * level
    k = int(position)
    pair = _window_pair(alpha, multipliers, draws, k)
    if pair is None:
        pair = _order_pair(_ratio(alpha, multipliers, draws), k)
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

