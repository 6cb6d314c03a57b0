"""Empirical-likelihood ratio for frequency-domain estimating equations.

For estimating-function rows ``m_t`` (t = 1..n) the EL ratio at theta is

    R(theta) = max{ prod_t n w_t : w_t >= 0, sum w_t = 1, sum w_t m_t = 0 }.

The maximum has the standard dual form ``w_t = 1 / (n (1 + phi' m_t))`` with
the multiplier ``phi`` solving ``(1/n) sum_t m_t / (1 + phi' m_t) = 0``; the
solver maximizes the concave dual ``sum_t log(1 + phi' m_t)`` by damped
Newton steps.  The test statistic replaces the chi-square normalization of
the classical theory by the heavy-tail rate ``x_n = (n / log n)**(1/alpha)``:

    stat(theta) = -2 * (x_n**2 / n) * log R(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .scores import (ScoreFunction, check_alpha, estimating_function,
                     estimating_function_mv)

_FEASIBILITY_LIMIT = 60  # step halvings before declaring the direction dead


def x_n(n: int, alpha: float) -> float:
    """Normalizing rate ``(n / log n)**(1/alpha)`` of the stable regime."""
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    alpha = check_alpha(alpha)
    return float((n / np.log(n)) ** (1.0 / alpha))


@dataclass(frozen=True)
class LagrangeSolution:
    phi: np.ndarray
    converged: bool
    hull_ok: bool
    residual: float
    iterations: int


@dataclass(frozen=True)
class ELResult:
    """Outcome of one empirical-likelihood evaluation at a fixed theta."""

    theta: np.ndarray
    statistic: float
    log_ratio: float
    phi: np.ndarray
    weights: np.ndarray | None
    converged: bool
    hull_ok: bool
    residual: float
    iterations: int


def _hull_interior_lp(m: np.ndarray) -> bool:
    """Exact check that 0 lies in the interior of the hull of the rows of m.

    Solves ``max eps  s.t.  m' lam = 0, sum lam = 1, lam_t >= eps`` by linear
    programming; a strictly positive optimum exhibits an all-positive weight
    representation of zero.  Used only on the q > 1 fallback path.
    """
    from scipy.optimize import linprog

    n, q = m.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.zeros((q + 1, n + 1))
    a_eq[:q, :n] = m.T
    a_eq[q, :n] = 1.0
    b_eq = np.zeros(q + 1)
    b_eq[q] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * n + [(0.0, 1.0)], method="highs")
    return bool(res.success) and res.x[-1] > 1e-12


def solve_lagrange(m: np.ndarray, tol: float = 1e-10, max_iter: int = 100,
                   phi0: np.ndarray | None = None) -> LagrangeSolution:
    """Solve the EL dual problem for the multiplier ``phi``.

    Returns a :class:`LagrangeSolution`; ``hull_ok=False`` signals that zero
    is not interior to the convex hull of the rows, in which case no
    feasible weights exist and callers should treat the ratio as zero.
    Convergence is declared when ``||(1/n) sum_t m_t / (1 + phi' m_t)||``
    drops below ``tol``.  Feasibility ``1 + phi' m_t > 1/n`` is maintained
    throughout, which keeps every weight inside (0, 1).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("m must be a 2-d array of estimating-function rows")
    n, q = m.shape
    if n < 2:
        raise ValueError("need at least two rows")

    if not np.any(m):
        # constraint satisfied identically; all weights equal
        return LagrangeSolution(np.zeros(q), True, True, 0.0, 0)
    if q == 1:
        # single multiplier: the globally convergent bracketed iteration
        start = None if phi0 is None else np.asarray(phi0, dtype=float).reshape(1)
        batch = solve_lagrange_batch(m.reshape(1, n), tol=tol, max_iter=max_iter,
                                     phi0=start)
        phi = batch.phi
        residual = float(np.abs(np.sum(m[:, 0] / (1.0 + phi[0] * m[:, 0])))) / n
        return LagrangeSolution(phi, bool(batch.converged[0]), bool(batch.hull_ok[0]),
                                residual, int(batch.iterations[0]))

    phi = np.zeros(q) if phi0 is None else np.asarray(phi0, dtype=float).copy()
    y = 1.0 + m @ phi
    if np.any(y <= 1.0 / n):  # infeasible warm start: fall back to zero
        phi = np.zeros(q)
        y = 1.0 + m @ phi

    def dual(yvec):
        return float(np.sum(np.log(yvec)))

    value = dual(y)
    residual = np.inf
    for iteration in range(max_iter + 1):
        grad = m.T @ (1.0 / y)
        residual = float(np.linalg.norm(grad)) / n
        if residual < tol:
            # At an interior stationary point the implied weights sum to one
            # (sum_t (y_t - 1)/y_t = phi' grad = 0).  When zero is outside
            # the hull, the gradient also vanishes along a recession
            # direction with y -> inf, but there the weight sum collapses,
            # so it separates true convergence from divergence.
            if abs(float(np.sum(1.0 / y)) / n - 1.0) < 1e-6:
                return LagrangeSolution(phi, True, True, residual, iteration)
            return LagrangeSolution(phi, False, _hull_interior_lp(m),
                                    residual, iteration)
        if iteration == max_iter:
            break
        scaled = m / y[:, None]
        hess = scaled.T @ scaled
        try:
            direction = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            direction = np.linalg.lstsq(hess, grad, rcond=None)[0]
        step = 1.0
        for _ in range(_FEASIBILITY_LIMIT):
            candidate = phi + step * direction
            y_new = 1.0 + m @ candidate
            if np.all(y_new > 1.0 / n):
                value_new = dual(y_new)
                if value_new >= value:
                    phi, y, value = candidate, y_new, value_new
                    break
            step *= 0.5
        else:
            break  # no acceptable step along the Newton direction

    hull_ok = _hull_interior_lp(m) if q > 1 else True
    return LagrangeSolution(phi, False, hull_ok, residual, max_iter)


@dataclass(frozen=True)
class BatchSolution:
    """Vectorized dual solutions for a batch of q = 1 problems."""

    phi: np.ndarray         # (B,) multipliers
    log_ratio: np.ndarray   # (B,) log R; -inf on hull failure, nan if unconverged
    converged: np.ndarray   # (B,) bool
    hull_ok: np.ndarray     # (B,) bool
    iterations: np.ndarray  # (B,) int


def solve_lagrange_batch(m: np.ndarray, tol: float = 1e-10, max_iter: int = 100,
                         phi0: np.ndarray | None = None) -> BatchSolution:
    """Solve a batch of one-dimensional EL dual problems simultaneously.

    ``m`` has shape (B, n); row b holds the scalar estimating-function values
    of one candidate theta, so a full grid scan becomes a single call.  For
    q = 1 the feasible multiplier interval has closed-form endpoints and the
    dual derivative ``sum_t m_t / (1 + phi m_t)`` is strictly decreasing on
    it, so a Newton iteration safeguarded by bisection inside the shrinking
    bracket converges on every row without line searches.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("m must be a 2-d array (batch, rows)")
    b, n = m.shape
    if n < 2:
        raise ValueError("need at least two rows per problem")

    phi = np.zeros(b)
    iterations = np.zeros(b, dtype=int)
    zero = ~m.any(axis=1)
    hull = (m.max(axis=1) > 0.0) & (m.min(axis=1) < 0.0)
    converged = zero.copy()

    work = np.flatnonzero(hull)
    if work.size:
        rows = m[work]
        bound = 1.0 / n - 1.0  # y = 1 + phi m must stay above 1/n
        with np.errstate(divide="ignore", invalid="ignore"):
            crossings = bound / rows
        lo = np.where(rows > 0.0, crossings, -np.inf).max(axis=1)
        hi = np.where(rows < 0.0, crossings, np.inf).min(axis=1)
        x = np.zeros(work.size)
        if phi0 is not None:
            start = np.asarray(phi0, dtype=float).reshape(b)[work]
            inside = (start > lo) & (start < hi)
            x = np.where(inside, start, 0.0)
        for iteration in range(max_iter + 1):
            ratio = rows / (1.0 + x[:, None] * rows)
            grad = ratio.sum(axis=1)
            done = np.abs(grad) / n < tol
            if done.any():
                sel = done.nonzero()[0]
                phi[work[sel]] = x[sel]
                converged[work[sel]] = True
                iterations[work[sel]] = iteration
                keep = ~done
                work, rows, x = work[keep], rows[keep], x[keep]
                lo, hi = lo[keep], hi[keep]
                if not work.size:
                    break
                ratio, grad = ratio[keep], grad[keep]
            if iteration == max_iter:
                break
            # the dual derivative decreases in phi: its sign sharpens the bracket
            right = grad > 0.0
            lo = np.where(right, x, lo)
            hi = np.where(right, hi, x)
            step = grad / (ratio * ratio).sum(axis=1)
            candidate = x + step
            outside = ~((candidate > lo) & (candidate < hi))
            candidate[outside] = 0.5 * (lo[outside] + hi[outside])
            x = candidate
        if work.size:
            phi[work] = x  # best iterates of rows that ran out of iterations
            iterations[work] = max_iter

    log_ratio = np.full(b, np.nan)
    log_ratio[~hull & ~zero] = -np.inf
    ok = converged.nonzero()[0]
    if ok.size:
        y = 1.0 + phi[ok, None] * m[ok]
        log_ratio[ok] = -np.log(y).sum(axis=1)
    return BatchSolution(phi=phi, log_ratio=log_ratio, converged=converged,
                         hull_ok=hull | zero, iterations=iterations)


def log_el_ratio(x: np.ndarray, score: ScoreFunction, theta, alpha: float,
                 periodogram: np.ndarray | None = None, tol: float = 1e-10,
                 max_iter: int = 100) -> ELResult:
    """Empirical-likelihood ratio and test statistic at a fixed ``theta``.

    When zero lies outside the convex hull of the estimating-function rows
    the ratio is zero by convention and the statistic is ``+inf`` (the
    parameter value is rejected at any level).  A solver breakdown with the
    hull condition satisfied raises :class:`SolverError`.
    """
    theta = score.check_theta(theta)
    builder = estimating_function_mv if score.is_matrix else estimating_function
    m = builder(x, score, theta, alpha, periodogram=periodogram)
    n = m.shape[0]
    solution = solve_lagrange(m, tol=tol, max_iter=max_iter)
    if not solution.hull_ok:
        return ELResult(theta=theta, statistic=np.inf, log_ratio=-np.inf,
                        phi=solution.phi, weights=None, converged=False,
                        hull_ok=False, residual=solution.residual,
                        iterations=solution.iterations)
    if not solution.converged:
        raise SolverError("EL dual solver failed to converge",
                          residual=solution.residual, iterations=solution.iterations)
    y = 1.0 + m @ solution.phi
    log_ratio = float(-np.sum(np.log(y)))
    statistic = -2.0 * x_n(n, alpha) ** 2 / n * log_ratio
    return ELResult(theta=theta, statistic=statistic, log_ratio=log_ratio,
                    phi=solution.phi, weights=1.0 / (n * y), converged=True,
                    hull_ok=True, residual=solution.residual,
                    iterations=solution.iterations)
