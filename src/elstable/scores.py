"""Score functions and the frequency-domain estimating function.

A score function is a parametric family ``f(omega; theta)`` entering the
Whittle-type disparity ``integral I(omega) / f(omega; theta) d omega``.  The
estimating function evaluates the theta-gradient of the summand on the full
frequency grid:

    m(lambda_t; theta) = d/d theta [ I(lambda_t) / f(lambda_t; theta) ]
                       = grad_inv(lambda_t; theta) * I(lambda_t),

with the self-normalized periodogram in the scalar case and the trace form
``tr{ d f^-1 / d theta * I(lambda_t) }`` in the matrix case.  Every score
has one parameter ``theta``.  Every factory checks ``grad_inv`` against
finite differences of ``1/f`` before returning, so a mistyped derivative
cannot propagate silently.
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
    """One-parameter score ``f`` with the analytic gradient of its inverse.

    ``f(omega, theta)`` maps a frequency array of shape (N,) to values of
    shape (N,) (scalar kind) or (N, d, d) complex Hermitian (matrix kind).
    ``grad_inv(omega, theta)`` returns the derivative of ``1/f`` (or of the
    matrix inverse) with a leading parameter axis of length one: (1, N) or
    (1, N, d, d).  ``domain`` holds the one open interval ``(lo, hi)`` of
    theta.
    ``lag`` is the autocorrelation lag an autocorrelation score targets, so
    the competing sample-autocorrelation interval can read it; None for
    other scores.
    """

    name: str
    dim: int
    domain: tuple
    f: Callable = field(repr=False)
    grad_inv: Callable = field(repr=False)
    lag: int | None = None

    @property
    def is_matrix(self) -> bool:
        return self.dim > 1

    def check_theta(self, theta) -> np.ndarray:
        """A scalar or one-element ``theta`` in the domain, as shape (1,)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if theta.shape != (1,):
            raise DomainError(f"score {self.name!r} takes one parameter, "
                              f"got shape {theta.shape}")
        lo, hi = self.domain[0]
        if not lo < theta[0] < hi:
            raise DomainError(f"theta[0]={theta[0]} outside open interval "
                              f"({lo}, {hi}) for score {self.name!r}")
        return theta


def check_gradient(score: ScoreFunction, rng: np.random.Generator | None = None,
                   n_points: int = 100, step: float = 1e-5, rtol: float = 1e-6) -> None:
    """Verify ``grad_inv`` against central finite differences of ``1/f``.

    Raises :class:`NumericalError` if any of ``n_points`` random (omega,
    theta) pairs disagrees beyond ``rtol`` relative to the gradient scale.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    omega = (rng.random(n_points) * 2.0 - 1.0) * np.pi
    lo, hi = score.domain[0]
    # keep theta and the difference stencil strictly inside the domain
    theta = lo + (0.1 + 0.8 * rng.random(1)) * (hi - lo)

    def inv_f(th):
        val = score.f(omega, th)
        return np.linalg.inv(val) if score.is_matrix else 1.0 / val

    grad = np.asarray(score.grad_inv(omega, theta))[0]
    scale = np.max(np.abs(grad)) + 1.0
    diff = (inv_f(theta + step) - inv_f(theta - step)) / (2.0 * step)
    err = np.max(np.abs(diff - grad))
    if err > rtol * scale:
        raise NumericalError(
            f"grad_inv of score {score.name!r} disagrees with finite "
            f"differences: max error {err:.3e} vs scale {scale:.3e}")


def acf_score(lag: int) -> ScoreFunction:
    """Score ``f(omega; theta) = |1 - theta e^(i lag omega)|**-2``.

    Its pivotal value under a linear process is the lag-``lag``
    autocorrelation, which makes the EL region a confidence region for
    ``rho(lag)``.  ``1/f = 1 - 2 theta cos(lag omega) + theta**2``.
    """
    lag = int(lag)
    if lag < 1:
        raise ValueError("lag must be a positive integer")

    def f(omega, theta):
        th = float(np.atleast_1d(theta)[0])
        return 1.0 / (1.0 - 2.0 * th * np.cos(lag * np.asarray(omega)) + th * th)

    def grad_inv(omega, theta):
        th = float(np.atleast_1d(theta)[0])
        return (-2.0 * np.cos(lag * np.asarray(omega)) + 2.0 * th)[None, :]

    score = ScoreFunction(name=f"acf_lag{lag}", dim=1,
                          domain=((-1.0, 1.0),), f=f, grad_inv=grad_inv, lag=lag)
    check_gradient(score)
    return score


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
    ``f^-1 = (I - B e^(i omega))* (I - B e^(i omega))``, so its gradient is
    available analytically.  ``B(theta)`` must have spectral radius < 1;
    the domain of theta is (-1, 1).
    """
    base, mask = _parse_template(template)
    d = mask.shape[0]

    def coupling(theta):
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        b = base + th[0] * mask
        radius = np.max(np.abs(np.linalg.eigvals(b)))
        if radius >= 1.0:
            raise DomainError(f"coupling matrix has spectral radius {radius:.4f} >= 1 "
                              f"at theta={th.tolist()}")
        return b

    def a_matrices(omega, theta):
        b = coupling(theta)
        phases = np.exp(1j * np.asarray(omega, dtype=float))
        return np.eye(d) - phases[:, None, None] * b

    def f(omega, theta):
        a = a_matrices(omega, theta)
        inv = np.linalg.inv(a)
        return inv @ np.conj(np.swapaxes(inv, -1, -2))

    def grad_inv(omega, theta):
        a = a_matrices(omega, theta)
        phases = np.exp(1j * np.asarray(omega, dtype=float))
        term = np.conj(np.swapaxes(a, -1, -2)) @ (phases[:, None, None] * mask)
        return -(np.conj(np.swapaxes(term, -1, -2)) + term)[None]

    score = ScoreFunction(name="var1", dim=d, domain=((-1.0, 1.0),),
                          f=f, grad_inv=grad_inv)
    check_gradient(score)
    return score


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

    Returns an (n, 1) array; a stack of series (B, n), with one ``alpha``
    or one per series, gives (B, n, 1).  ``periodogram`` may carry
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
    grad = np.asarray(score.grad_inv(freqs, theta))
    return values[..., None] * grad.T


def estimating_function_mv(x: np.ndarray, score: ScoreFunction, theta, alpha: float,
                           periodogram: np.ndarray | None = None) -> np.ndarray:
    """Estimating-function rows ``tr{ d f^-1/d theta * I(lambda_t) }``.

    Returns an (n, 1) array of real values; a non-negligible imaginary part
    indicates a non-Hermitian score or periodogram and raises.
    """
    alpha = check_alpha(alpha)
    theta = score.check_theta(theta)
    if periodogram is None:
        periodogram = periodogram_matrix_grid(np.asarray(x, dtype=float), alpha)
    freqs = fourier_frequencies(periodogram.shape[0])
    grad = np.asarray(score.grad_inv(freqs, theta))
    rows = np.einsum("qtab,tba->tq", grad, periodogram)
    scale = np.max(np.abs(rows.real)) + 1.0
    if np.max(np.abs(rows.imag)) > 1e-8 * scale:
        raise NumericalError("estimating function has a non-negligible imaginary part; "
                             "score or periodogram is not Hermitian")
    return np.ascontiguousarray(rows.real)
