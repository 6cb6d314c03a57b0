"""Empirical-likelihood ratio for frequency-domain estimating equations.

For the scalar estimating-function rows ``m_t`` (t = 1..n) of a
one-parameter score the EL ratio at theta is

    R(theta) = max{ prod_t n w_t : w_t >= 0, sum w_t = 1, sum w_t m_t = 0 }.

The maximum has the standard dual form ``w_t = 1 / (n (1 + phi m_t))`` with
the multiplier ``phi`` solving ``(1/n) sum_t m_t / (1 + phi m_t) = 0``.  Its
feasible interval has closed-form ends (Owen 2001, *Empirical Likelihood*,
section 3.14), on which that derivative decreases, so one Newton iteration
safeguarded by bisection inside the shrinking bracket solves every problem
of a batch.  The test statistic replaces the chi-square normalization of
the classical theory by the heavy-tail rate ``x_n = (n / log n)**(1/alpha)``:

    stat(theta) = -2 * (x_n**2 / n) * log R(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scores import check_alpha

_TOL = 1e-10     # convergence: |(1/n) sum_t m_t / (1 + phi m_t)| below this
_MAX_ITER = 100  # Newton/bisection steps before a row counts as unconverged


def x_n(n: int, alpha: float) -> float:
    """Normalizing rate ``(n / log n)**(1/alpha)`` of the stable regime."""
    n = int(n)
    if n < 2:
        raise ValueError("n must be at least 2")
    alpha = check_alpha(alpha)
    return float((n / np.log(n)) ** (1.0 / alpha))


def solve_lagrange(m: np.ndarray) -> BatchSolution:
    """Solve the EL dual problem of one (n, 1) array of rows for ``phi``.

    The one-problem case of :func:`solve_lagrange_batch`: a one-row
    :class:`BatchSolution`.  ``hull_ok[0]`` False signals that zero is not
    interior to the convex hull of the rows, in which case no feasible
    weights exist and callers should treat the ratio as zero.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[1] != 1:
        raise ValueError(f"m must be an (n, 1) array of estimating-function rows, "
                         f"got shape {m.shape}")
    return solve_lagrange_batch(m.T)


@dataclass(frozen=True)
class BatchSolution:
    """Vectorized dual solutions for a batch of one-parameter problems."""

    phi: np.ndarray         # (B,) multipliers
    log_ratio: np.ndarray   # (B,) log R; -inf on hull failure, nan if unconverged
    converged: np.ndarray   # (B,) bool
    hull_ok: np.ndarray     # (B,) bool
    iterations: np.ndarray  # (B,) int


def solve_lagrange_batch(m: np.ndarray) -> BatchSolution:
    """Solve a batch of one-dimensional EL dual problems simultaneously.

    ``m`` has shape (B, n); row b holds the scalar estimating-function values
    of one candidate theta, so the probes of a search round take one call.  The
    feasible multiplier interval has closed-form endpoints and the dual
    derivative ``sum_t m_t / (1 + phi m_t)`` is strictly decreasing on it,
    so a Newton iteration safeguarded by bisection inside the shrinking
    bracket converges on every row without line searches.  Each row starts
    at ``phi = 0`` and is solved on its own; an all-zero row is solved at
    once (``phi = 0``, converged after 0 iterations).
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
    largest, smallest = m.max(axis=1), m.min(axis=1)
    hull = (largest > 0.0) & (smallest < 0.0)
    converged = zero.copy()
    log_ratio = np.full(b, np.nan)
    log_ratio[~hull] = -np.inf
    log_ratio[zero] = -0.0  # -sum(log(1 + 0 m)) of a row solved at once

    work = np.flatnonzero(hull)
    if work.size:
        rows = m if work.size == b else m[work]
        # y = 1 + phi m must stay above 1/n: phi lies between the crossings
        # bound / m_t, and the nearest ones on each side are those of the
        # largest and the smallest m_t (a rounded quotient is monotone in m_t)
        bound = 1.0 / n - 1.0
        lo, hi = bound / largest[work], bound / smallest[work]
        x = np.zeros(work.size)
        buffer = np.empty(rows.shape)  # each iteration's ratios, then their squares
        for iteration in range(_MAX_ITER + 1):
            # rows / (1 + x rows), and the sums of it and of its square
            ratio = np.multiply(x[:, None], rows, out=buffer[:len(rows)])
            ratio += 1.0
            np.divide(rows, ratio, out=ratio)
            grad = ratio.sum(axis=1)
            curvature = np.multiply(ratio, ratio, out=ratio).sum(axis=1)
            done = np.abs(grad) / n < _TOL
            if done.any():
                sel = done.nonzero()[0]
                phi[work[sel]] = x[sel]
                converged[work[sel]] = True
                iterations[work[sel]] = iteration
                y = rows[sel] * x[sel, None]  # 1 + phi m, and its log, in one buffer
                y += 1.0
                log_ratio[work[sel]] = -np.log(y, out=y).sum(axis=1)
                keep = ~done
                work, rows, x = work[keep], rows[keep], x[keep]
                lo, hi = lo[keep], hi[keep]
                if not work.size:
                    break
                grad, curvature = grad[keep], curvature[keep]
            if iteration == _MAX_ITER:
                break
            # the dual derivative decreases in phi: its sign sharpens the bracket
            right = grad > 0.0
            lo = np.where(right, x, lo)
            hi = np.where(right, hi, x)
            candidate = x + grad / curvature
            outside = ~((candidate > lo) & (candidate < hi))
            candidate[outside] = 0.5 * (lo[outside] + hi[outside])
            x = candidate
        if work.size:
            phi[work] = x  # best iterates of rows that ran out of iterations
            iterations[work] = _MAX_ITER

    return BatchSolution(phi=phi, log_ratio=log_ratio, converged=converged,
                         hull_ok=hull | zero, iterations=iterations)
