"""Score functions and the frequency-domain estimating function.

A score function is a parametric family ``f(omega; theta)`` entering the
Whittle-type disparity ``integral I(omega) / f(omega; theta) d omega``.  The
estimating function evaluates the theta-gradient of the summand on the full
frequency grid:

    m(lambda_t; theta) = d/d theta [ I(lambda_t) / f(lambda_t; theta) ]
                       = d(1/f)/d theta (lambda_t; theta) * I(lambda_t),

with the self-normalized periodogram in the scalar case and the trace form
``tr{ d f^-1 / d theta * I(lambda_t) }`` in the matrix case.  Every score
has one parameter ``theta``, and ``1/f`` of every shipped score is
quadratic in it, so its gradient is affine: a score carries the gradient
as ``intercept(omega) + theta * slope``, and the rows are ``a + theta b``
with ``b`` the periodogram weighted by the constant ``slope``.  Neither the
estimating function nor its limit law reads ``f`` itself; the tests check
each gradient against finite differences of the inverse density written
out there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .processes import _is_finite_real, check_number
from .spectral import fourier_frequencies, periodogram_matrix_grid, self_normalized_grid


@dataclass(frozen=True)
class ScoreFunction:
    """One-parameter score ``f``, held as the analytic gradient of its
    inverse, which is affine in theta.

    ``intercept(omega)`` maps a frequency array of shape (N,) to the
    theta-derivative of ``1/f`` at theta = 0, shape (N,) (scalar kind), or
    of the matrix inverse, shape (N, d, d) complex Hermitian (matrix kind).
    ``slope`` is the constant second derivative: a float, or a real
    symmetric (d, d) array, so the gradient at theta is ``intercept(omega)
    + theta * slope``, defined at every theta.  ``theta`` is a float, and
    ``domain`` its open interval ``(lo, hi)``.  ``check(theta)`` raises
    :class:`DomainError` where theta is not a valid value of the density
    itself (by default nowhere); only :func:`harness.pivotal_value` runs it,
    as the value it returns is a parameter of the density.  ``lag`` is the
    autocorrelation lag an autocorrelation score targets, so the competing
    sample-autocorrelation interval can read it; None for other scores.
    """

    name: str
    dim: int
    domain: tuple
    intercept: Callable = field(repr=False)
    slope: float | np.ndarray = field(repr=False)
    lag: int | None = None
    check: Callable = field(default=lambda theta: None, repr=False)

    @property
    def is_matrix(self) -> bool:
        return self.dim > 1

    def check_theta(self, theta) -> float:
        """A scalar or one-element ``theta`` in the domain, as a float."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != 1:
            raise DomainError(f"score {self.name!r} takes one parameter, "
                              f"got shape {theta.shape}")
        theta = theta.item()
        lo, hi = self.domain
        if not lo < theta < hi:
            raise DomainError(f"theta={theta} outside open interval "
                              f"({lo}, {hi}) for score {self.name!r}")
        return theta


def acf_score(lag: int) -> ScoreFunction:
    """Score ``f(omega; theta) = |1 - theta e^(i lag omega)|**-2``.

    Its pivotal value under a linear process is the lag-``lag``
    autocorrelation, which makes the EL region a confidence region for
    ``rho(lag)``.  ``1/f = 1 - 2 theta cos(lag omega) + theta**2``.
    """
    lag = int(lag)
    if lag < 1:
        raise ValueError("lag must be a positive integer")

    def intercept(omega):
        return -2.0 * np.cos(lag * np.asarray(omega))

    return ScoreFunction(name=f"acf_lag{lag}", dim=1, domain=(-1.0, 1.0),
                         intercept=intercept, slope=2.0, lag=lag)


def _parse_template(template) -> tuple[np.ndarray, np.ndarray]:
    """Split a matrix template into its fixed part and the 0/1 mask of the
    cells holding ``"theta"``."""
    template = np.asarray(template, dtype=object)
    if template.ndim != 2 or template.shape[0] != template.shape[1]:
        raise ValueError("template must be a square matrix")
    base = np.zeros(template.shape)
    mask = np.zeros(template.shape)
    for (i, j), cell in np.ndenumerate(template):
        if _is_finite_real(cell):
            base[i, j] = float(cell)
        elif isinstance(cell, str) and cell.strip().lower() == "theta":
            mask[i, j] = 1.0
        else:
            raise ValueError(f"unrecognized template entry {cell!r}")
    if not mask.any():
        raise ValueError("template contains no theta entries")
    return base, mask


def var1_score(template) -> ScoreFunction:
    """Score ``f(omega; theta) = (I - B e^(i omega))^-1 (...)^-*`` for a
    parameterized coupling matrix ``B(theta)``.

    ``template`` is a square matrix whose entries are numbers or the one
    parameter label ``"theta"``, which may fill several cells, e.g.
    ``[[0.5, "theta"], [0.4, 0.2]]``; ``B(theta)`` is the template with
    theta in those cells.  The inverse has the closed form
    ``f^-1 = (I - B e^(i omega))* (I - B e^(i omega))``, quadratic in theta
    with the constant second derivative ``2 M^T M``, M the 0/1 mask of the
    theta cells.  ``B(theta)`` must have spectral radius < 1 wherever theta
    is used as a coupling value (``check``); the domain of theta is (-1, 1).
    """
    base, mask = _parse_template(template)
    d = mask.shape[0]

    def intercept(omega):
        phases = np.exp(1j * np.asarray(omega, dtype=float))[:, None, None]
        term = np.conj(np.swapaxes(np.eye(d) - phases * base, -1, -2)) @ (phases * mask)
        return -(np.conj(np.swapaxes(term, -1, -2)) + term)

    def check(theta):
        radius = np.max(np.abs(np.linalg.eigvals(base + theta * mask)))
        if radius >= 1.0:
            raise DomainError(f"coupling matrix has spectral radius {radius:.4f} >= 1 "
                              f"at theta={theta}")

    return ScoreFunction(name="var1", dim=d, domain=(-1.0, 1.0), intercept=intercept,
                         slope=2.0 * mask.T @ mask, check=check)


def coupling_var1_score() -> ScoreFunction:
    """The two-dimensional coupling score with ``B = [[0.5, theta], [0.4, 0.2]]``."""
    return var1_score([[0.5, "theta"], [0.4, 0.2]])


def score_from_config(config: dict) -> ScoreFunction:
    """Build a score function from its JSON configuration."""
    name = config.get("name")
    if name == "acf_lag":
        return acf_score(check_number(config.get("lag", 2), "score lag", integer=True))
    if name == "var1":
        if "template" not in config:
            raise ValueError("a 'var1' score has no 'template' entry")
        return var1_score(config["template"])
    raise ValueError(f"unknown score name: {name!r}")


def check_alpha(alpha):
    """The stability index as a float, or an array of them, one per series
    of a stack; inference is defined for [1, 2)."""
    values = np.asarray(alpha, dtype=float)
    outside = values[~((1.0 <= values) & (values < 2.0))]
    if outside.size:
        raise ValueError(f"inference requires alpha in [1, 2), got {float(outside[0])}")
    return float(values) if values.ndim == 0 else values


def estimating_function(x: np.ndarray, score: ScoreFunction, theta, alpha: float,
                        periodogram: np.ndarray | None = None) -> np.ndarray:
    """Estimating-function rows ``m(lambda_t; theta)`` for a scalar series.

    Returns an (n,) array; a stack of series (B, n), with one ``alpha``
    or one per series, gives (B, n).  ``periodogram`` may carry
    precomputed self-normalized periodogram values on the full frequency
    grid, so that grid scans over theta pay for the FFT once.
    """
    check_alpha(alpha)
    if score.is_matrix:
        raise ValueError("matrix score passed to the scalar estimating function")
    theta = score.check_theta(theta)
    x = np.asarray(x, dtype=float)
    values = self_normalized_grid(x) if periodogram is None else periodogram
    freqs = fourier_frequencies(values.shape[-1])
    return values * (score.intercept(freqs) + theta * score.slope)


def _trace_rows(matrix: np.ndarray, periodogram: np.ndarray) -> np.ndarray:
    """Contiguous real rows ``tr{matrix I(lambda_t)}`` of a periodogram
    (..., n, d, d), ``matrix`` (d, d) or (n, d, d).  A stack is laid out as
    one series, so each gets bitwise its rows alone (``einsum`` sums by layout)."""
    flat = periodogram.reshape((-1,) + periodogram.shape[-2:])
    matrix = np.broadcast_to(matrix, periodogram.shape).reshape(flat.shape)
    rows = np.einsum("tab,tba->t", matrix, flat).reshape(periodogram.shape[:-2])
    if np.any(np.max(np.abs(rows.imag), -1) > 1e-8 * (np.max(np.abs(rows.real), -1) + 1.0)):
        raise NumericalError("estimating function has a non-negligible imaginary part; "
                             "score or periodogram is not Hermitian")
    return np.ascontiguousarray(rows.real)


def estimating_function_mv(x: np.ndarray, score: ScoreFunction, theta, alpha,
                           periodogram: np.ndarray | None = None) -> np.ndarray:
    """Estimating-function rows ``tr{ d f^-1/d theta * I(lambda_t) }``.

    Returns (n,) real rows, or (B, n) for a stack (B, n, d) with one
    ``alpha`` or B of them; a non-negligible imaginary part indicates a
    non-Hermitian score or periodogram and raises.
    """
    alpha = check_alpha(alpha)
    theta = score.check_theta(theta)
    if periodogram is None:
        periodogram = periodogram_matrix_grid(np.asarray(x, dtype=float), alpha)
    freqs = fourier_frequencies(periodogram.shape[-3])
    return _trace_rows(score.intercept(freqs) + theta * score.slope, periodogram)
