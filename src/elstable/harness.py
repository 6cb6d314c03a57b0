"""Experiment engine: interval scans, table reproduction, coverage studies.

The confidence region for a scalar parameter is the set of grid points whose
EL statistic stays below the Monte-Carlo threshold ``gamma_p``; its hull is
reported as an interval.  The competing sample-autocorrelation interval is
``rho_hat(l) +/- q_p / x_n`` with ``q_p`` the two-sided quantile of the
stable ratio law.  Experiments are replicated with one rng substream per
replicate (derived from the master seed and the replicate index), so results
are identical for any worker count, and all outputs are CSV files with a
schema-version header.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .emplik import solve_lagrange_batch, x_n
from .errors import NumericalError
from .limitlaw import (LimitLawConfig, _trapezoid, _uniform_grid, prepare_limit,
                       sac_series_constant, sample_stable_ratio)
from .processes import (LinearProcessSpec, ma_polynomial_spec, power_transfer_matrix,
                        simulate_linear, simulate_vector_linear, spec_from_dict, theoretical_acf,
                        transfer_matrix, vma_table_spec)
from .scores import (ScoreFunction, acf_score, coupling_var1_score,
                     estimating_function, estimating_function_mv, score_from_config)
from .spectral import (SmoothedTransfer, hill_estimator,
                       periodogram_matrix_grid, sample_acf, self_normalized_grid)

SCHEMA_VERSION = "elstable-csv 1"
DEFAULT_SEED = 20140214
MIN_SERIES_LENGTH = 8

# Hill estimates are clipped into the admissible range of the inference
# machinery; values at the edges signal a misspecified tail.
_ALPHA_CLIP = (1.0, 1.99)


# --------------------------------------------------------------------------
# intervals and region scans

@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided interval produced by one of the competing methods."""

    method: str
    level: float
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower <= self.upper:
            raise ValueError(f"interval bounds out of order: "
                             f"[{self.lower}, {self.upper}]")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    def covers(self, theta: float) -> bool:
        return bool(self.lower <= theta <= self.upper)


@dataclass(frozen=True)
class RegionScan:
    """Grid scan of the EL statistic against a fixed threshold."""

    thetas: np.ndarray
    stats: np.ndarray
    gamma: float
    level: float
    accepted: np.ndarray
    interval: ConfidenceInterval | None
    hull_failures: int
    solver_failures: int

    @property
    def is_empty(self) -> bool:
        return self.interval is None


def el_confidence_region(x: np.ndarray, score: ScoreFunction, grid: np.ndarray,
                         gamma: float, alpha: float, level: float = 0.9) -> RegionScan:
    """Keep the grid points whose EL statistic stays below ``gamma``.

    Hull failures enter as ``+inf`` statistics (the point is rejected);
    solver breakdowns are counted and excluded.  The reported interval is
    the hull of the accepted grid points, ``None`` when the region is empty.
    The rows at every grid point come from the affine decomposition
    ``a + theta b`` of the score (:func:`_affine_rows`), so a score that is
    not affine in theta raises :class:`NumericalError`.

    For a scalar score whose slope ``b`` is one-signed, such as the
    autocorrelation scores, the region is an interval (Owen 1990, Monti
    1997), so its first and last grid points are found by a secant search
    on the square root of the statistic, safeguarded by bisection over grid
    indices (:func:`_search_region`): about 3 batch solves of about 9 grid
    points in all, each with the decision a full scan makes there.  ``thetas``,
    ``stats`` and ``accepted`` hold only the probed points: the smallest
    (largest) of them is the interval's lower (upper) end exactly when that
    end is the grid end.  ``hull_failures`` still counts the whole grid, while
    ``solver_failures`` counts only solved points; a probe whose solve does
    not converge ends the search, so it reads 0 there.  Matrix scores,
    slopes of both signs and unconverged probes take the full scan: one
    batch solve of the rows at every grid point, never joined with other
    series.  This is the one-series case of :func:`_lockstep`, which runs
    the searches of a chunk of series together.
    """
    a, b = _affine_rows(x, score, alpha)
    return _lockstep([_region_steps(a, b, grid, gamma, alpha, score.is_matrix,
                                    level)])[0]


def _lockstep(steps: list) -> list:
    """Run step generators together and return what each one returns.

    A step generator yields the ``(k, n)`` probe rows of one search round
    and is sent back their :class:`BatchSolution`.  Each round joins the
    rows of every pending generator, all of the same length ``n``, into one
    ``solve_lagrange_batch`` call; each row is solved on its own with no
    warm start, so its solution does not depend on the rows beside it.
    """
    results, pending = [None] * len(steps), {}

    def advance(i, solution):
        try:
            pending[i] = steps[i].send(solution)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(steps)):
        advance(i, None)
    while pending:
        rounds, pending = pending, {}
        parts = list(rounds.values())  # a lone series' rows go in uncopied
        batch = solve_lagrange_batch(parts[0] if len(parts) == 1 else np.concatenate(parts))
        start = 0
        for i, rows in rounds.items():
            part = slice(start, start + len(rows))
            advance(i, type(batch)(**{k: v[part] for k, v in vars(batch).items()}))
            start = part.stop
    return results


def _region_steps(a: np.ndarray, b: np.ndarray, grid: np.ndarray, gamma: float,
                  alpha: float, matrix: bool, level: float):
    """:func:`el_confidence_region` of the rows ``a + theta b`` as a step
    generator for :func:`_lockstep`; returns the :class:`RegionScan`."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be a non-empty, strictly increasing 1-d array")
    scale = -2.0 * x_n(a.size, alpha) ** 2 / a.size
    search = None if matrix else (yield from _search_region(grid, gamma, a, b, scale))
    if search is None:
        batch = solve_lagrange_batch(a + grid[:, None] * b)
        thetas, stats = grid, scale * batch.log_ratio
        solver_failures = int(np.sum(~batch.converged & batch.hull_ok))
        hull_failures = int(np.sum(~batch.hull_ok))
    else:
        probed, stats, hull_failures = search
        thetas, solver_failures = grid[probed], 0
    accepted = stats < gamma  # nan (unconverged) and +inf (hull) both excluded
    if accepted.any():
        inside = thetas[accepted]
        interval = ConfidenceInterval("el", level, float(inside[0]), float(inside[-1]))
    else:
        interval = None
    return RegionScan(thetas=thetas, stats=stats, gamma=float(gamma), level=level,
                      accepted=accepted, interval=interval,
                      hull_failures=hull_failures, solver_failures=solver_failures)


def _hull_ok(rows: np.ndarray) -> np.ndarray:
    """Zero inside the hull of each row's values (the batch solver's test)."""
    return ((rows.max(axis=1) > 0.0) & (rows.min(axis=1) < 0.0)) | ~rows.any(axis=1)


def _search_region(grid: np.ndarray, gamma: float, a: np.ndarray, b: np.ndarray,
                   scale: float):
    """Accepted grid interval of the rows ``a + theta b`` by a safeguarded secant.

    With a one-signed slope ``b`` the statistic is zero at the root
    ``theta_hat = -sum(a) / sum(b)`` and its sublevel sets are intervals, so
    the smallest grid statistic sits on one of the two grid neighbours of
    ``theta_hat``: the first round solves only them, and when neither is
    accepted the region is empty.  Otherwise each region end lies in a
    bracket of grid indices, one rejected and one accepted, which starts at
    the virtual index -1 or ``last + 1`` beyond the grid end; those count as
    rejected and are never solved.  Away from ``theta_hat`` the square
    root of the statistic grows close to linearly, so every later round
    solves the two grid points around the secant estimate of
    ``sqrt(stat) = sqrt(gamma)`` in each open bracket (:func:`_secant_probes`).
    As a safeguard, a bracket wider than bisection would have left it after
    as many rounds also gets its midpoint, so the search takes at most one
    round more than bisection (Brent 1973, ch. 4).  Each round's probe rows
    are yielded and their solutions sent back (:func:`_lockstep`); each probe
    is solved on its own, so every accept/reject decision is the one a full
    scan makes at that grid point.
    Zero lies inside the hull of the rows exactly on the open interval
    between the smallest and the largest root ``-a_t / b_t``, which counts
    the hull failures over the whole grid once the grid points next to its
    ends confirm it.

    Returns ``(probed indices, their statistics, hull failures)``; a grid end
    is probed exactly when the region reaches it.  None when the slope is zero or
    takes both signs, a probe's solve did not converge, or the hull count is
    not confirmed.
    """
    if not b.any() or not (np.all(b >= 0.0) or np.all(b <= 0.0)):
        return None
    last = grid.size - 1
    stats = {}

    def probe(indices):
        """Solve the unprobed ``indices``; False when a solve did not converge."""
        new = sorted(set(indices) - stats.keys())
        if new:
            batch = yield a + grid[new][:, None] * b
            if np.any(~batch.converged & batch.hull_ok):
                return False
            stats.update(zip(new, scale * batch.log_ratio))
        return True

    def accepted(i):
        return bool(stats[i] < gamma)

    root = -a.sum() / b.sum()
    k = int(np.searchsorted(grid, root))
    nearest = {min(max(i, 0), last) for i in (k - 1, k)}
    if not (yield from probe(nearest)):
        return None
    seeds = [i for i in sorted(nearest) if accepted(i)]
    if seeds:
        # [rejected, accepted, width a bisection would have left by now]
        brackets = [[-1, seeds[0]], [last + 1, seeds[-1]]]
        for bracket in brackets:
            bracket.append(abs(bracket[0] - bracket[1]))
        while active := [br for br in brackets if abs(br[0] - br[1]) > 1]:
            indices = set()
            for out, inside, budget in active:
                indices |= _secant_probes(grid, stats, root, gamma, out, inside)
                if abs(out - inside) > budget:
                    indices.add((out + inside) // 2)
            if not (yield from probe(indices)):
                return None
            for bracket in active:
                for i in sorted(indices):
                    if min(bracket[:2]) < i < max(bracket[:2]):
                        bracket[accepted(i)] = i
                bracket[2] = (bracket[2] + 1) // 2
    roots = -a[b != 0.0] / b[b != 0.0]
    first = int(np.searchsorted(grid, roots.min(), side="right"))
    stop = int(np.searchsorted(grid, roots.max(), side="left"))
    edges = [i for i in (first - 1, first, stop - 1, stop) if 0 <= i <= last]
    inside = [first <= i < stop for i in edges]
    if np.any(_hull_ok(a + grid[edges][:, None] * b) != inside):
        return None
    probed = np.array(sorted(stats))
    return (probed, np.array([stats[i] for i in probed]),
            grid.size - max(0, stop - first))


def _secant_probes(grid: np.ndarray, stats: dict, root: float, gamma: float,
                   out: int, inside: int) -> set:
    """Grid indices around the secant estimate of a region end.

    The known points on the bracket's side of ``root`` are ``(root, 0)`` and
    ``(theta_j, sqrt(stat_j))`` for every probed ``j`` with a finite
    statistic; the two whose ``sqrt(stat)`` is nearest ``sqrt(gamma)`` give
    the secant.  The two grid indices around its crossing are clipped
    strictly inside the bracket; without a usable secant the midpoint is
    returned instead.
    """
    lo, hi = min(out, inside), max(out, inside)
    side = 1.0 if out > inside else -1.0
    points = [(root, 0.0)] + [(grid[j], math.sqrt(max(s, 0.0)))
                              for j, s in stats.items()
                              if math.isfinite(s) and side * (grid[j] - root) > 0.0]
    target = math.sqrt(max(gamma, 0.0))
    nearest = sorted(points, key=lambda point: abs(point[1] - target))[:2]
    if len(nearest) < 2 or nearest[0][1] == nearest[1][1]:
        return {(lo + hi) // 2}
    (t1, r1), (t2, r2) = nearest
    theta = t1 + (target - r1) * (t2 - t1) / (r2 - r1)
    j = int(np.searchsorted(grid, theta))
    return {min(max(i, lo + 1), hi - 1) for i in (j - 1, j)}


def theta_grid(score: ScoreFunction, step: float = 0.001,
               lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Uniform parameter grid over the score domain, clipped to ``+/-0.999``."""
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    dlo, dhi = score.domain[0]
    lo = max(dlo + step, -0.999) if lo is None else float(lo)
    hi = min(dhi - step, 0.999) if hi is None else float(hi)
    if not lo < hi:
        raise ValueError(f"empty grid: [{lo}, {hi}]")
    count = int(round((hi - lo) / step))
    return lo + step * np.arange(count + 1)


# --------------------------------------------------------------------------
# affine scores: rows, plug-in points and pivotal values in closed form

def _affine(fun: Callable, score: ScoreFunction):
    """Intercept and slope ``(a, b)`` of ``fun(theta) = a + theta b``.

    ``fun`` is evaluated at the midpoint and the upper quarter point of the
    score domain (clipped to +/-8) and checked at the lower quarter point.
    A residual above 1e-9 of the evaluated values raises
    :class:`NumericalError`: the closed forms built on ``(a, b)`` would be
    wrong for a score that is not affine in theta.  Values with a leading
    axis are rows checked one by one.
    """
    lo, hi = np.clip(score.domain[0], -8.0, 8.0)
    mid, upper, lower = lo + (hi - lo) * np.array([0.5, 0.75, 0.25])
    at_mid, at_upper = np.asarray(fun(mid)), np.asarray(fun(upper))
    b = (at_upper - at_mid) / (upper - mid)
    a = at_mid - mid * b

    def row_max(values):
        return values.max(axis=-1) if values.ndim else values

    residual = row_max(np.abs(fun(lower) - (a + lower * b)))
    bad = residual > 1e-9 * row_max(np.maximum(np.abs(at_mid), np.abs(at_upper)))
    if np.any(bad):
        raise NumericalError(f"score {score.name!r} is not affine in theta: "
                             f"residual {np.max(residual[bad]):.3e} at theta={lower:g}")
    return a, b


def _affine_root(a, b, score: ScoreFunction, what: str):
    """Root ``-a / b`` of ``a + theta b``, which must lie in the score domain;
    one root per row for arrays, a float otherwise."""
    lo, hi = score.domain[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -np.asarray(a) / b + 0.0  # + 0.0 turns -0.0 into 0.0
    outside = ~((lo < root) & (root < hi))
    if np.any(outside):
        raise NumericalError(f"the {what} {root[outside][0]:.6g} of score {score.name!r} "
                             f"is not in its domain ({lo}, {hi})")
    return root if root.ndim else float(root)


def _affine_rows(x: np.ndarray, score: ScoreFunction, alpha):
    """Estimating-function rows ``m_t(theta) = a_t + theta b_t`` as ``(a, b)``.

    Both shipped scores are affine in theta: the autocorrelation rows are
    ``(-2 cos(l lambda_t) + 2 theta) I_t`` and the coupling matrix
    ``B(theta)`` of the var1 score enters ``grad_inv`` linearly.  This is the
    one place that picks the row builder; the periodogram is computed once
    for the three evaluations of :func:`_affine`.  A stack of scalar series
    (B, n), with one ``alpha`` or B of them, gives (B, n) rows in one pass;
    a stack of vector series (B, n, d) is decomposed one series at a time.
    """
    x = np.asarray(x, dtype=float)
    if score.is_matrix and x.ndim == 3:
        pairs = [_affine_rows(series, score, value)
                 for series, value in zip(x, np.broadcast_to(alpha, len(x)).tolist())]
        return tuple(np.array(part) for part in zip(*pairs))
    periodogram = (periodogram_matrix_grid(x, alpha) if score.is_matrix
                   else self_normalized_grid(x))
    builder = estimating_function_mv if score.is_matrix else estimating_function

    def rows(theta):
        return builder(x, score, theta, alpha, periodogram=periodogram)[..., 0]

    return _affine(rows, score)


def pivotal_value(spec, score: ScoreFunction, quad_points: int = 4096) -> float:
    """Parameter value targeted by the score under a known process.

    Solves ``integral  tr{ d(1/f)/d theta (omega; theta) g(omega) } d omega = 0``
    for theta, with ``g`` the exact power transfer of ``spec``.  For the
    autocorrelation score at lag l, whose ``d(1/f)/d theta`` is
    ``2 theta - 2 cos(l omega)``, the root is the model autocorrelation
    ``rho(l)`` in closed form; other scalar scores raise ``ValueError``.
    For a matrix score the ``quad_points`` trapezoid rule of the integral is
    affine in theta, ``A + theta B``, like the rows, so the value is
    ``-A / B``.  :class:`NumericalError` when the score is not affine or the
    value falls outside the score domain.
    """
    if not score.is_matrix:
        if score.lag is None:
            raise ValueError(f"the scalar pivotal value needs an autocorrelation "
                             f"score, got {score.name!r}")
        # the disparity is proportional to theta - rho(l)
        return _affine_root(-theoretical_acf(spec, score.lag), 1.0, score,
                            "pivotal value")

    grid = _uniform_grid(quad_points)
    g = power_transfer_matrix(spec, grid)

    def disparity(theta):
        grad = np.asarray(score.grad_inv(grid, np.atleast_1d(theta)))[0]
        return _trapezoid(np.einsum("tab,tba->t", grad, g).real, grid)

    return _affine_root(*_affine(disparity, score), score, "pivotal value")


def _model_acf(spec: LinearProcessSpec) -> np.ndarray:
    """Autocorrelations ``rho(0..order)`` of ``spec``: the cosine
    coefficients of its normalized power transfer."""
    return np.array([theoretical_acf(spec, h) for h in range(spec.order + 1)])


def whittle_point(x: np.ndarray, score: ScoreFunction, alpha: float) -> float:
    """Plug-in evaluation point: the root of the summed estimating function.

    This is the frequency-domain analogue of the point estimate the EL
    region contracts to; for the autocorrelation score it is within O(1/n)
    of the sample autocorrelation.  With the rows ``a + theta b`` of
    :func:`_affine_rows` it is ``-sum(a) / sum(b)``; :class:`NumericalError`
    when the score is not affine or the root falls outside the score domain.
    """
    a, b = _affine_rows(x, score, alpha)
    return _affine_root(a.sum(axis=-1), b.sum(axis=-1), score, "plug-in point")


# --------------------------------------------------------------------------
# the competing sample-autocorrelation interval

def _sac_halfwidth(ratio_abs_q: float, rho, lag: int, alpha: float, n: int,
                   truncation: int) -> float:
    """SAC half-width ``q_level(|S_1 / S_0|) K / x_n`` (Davis & Resnick 1986),
    from the quantile ``ratio_abs_q`` of the ratio draws."""
    k_ratio = sac_series_constant(rho, int(lag), alpha, truncation)
    return ratio_abs_q * k_ratio / x_n(n, alpha)


def _ratio_quantiles(draws: np.ndarray, level: float, sac: bool) -> tuple:
    """The level-quantiles of the squared ratio draws (the EL threshold's)
    and, for the SAC interval, of their absolute values."""
    return (float(np.quantile(draws ** 2, level)),
            float(np.quantile(np.abs(draws), level)) if sac else None)


# --------------------------------------------------------------------------
# one-shot analysis shared by tables, coverage replicates, and the CLI

@dataclass(frozen=True)
class AnalysisResult:
    alpha: float
    theta_ref: float
    gamma: float
    el: RegionScan | None
    sac: ConfidenceInterval | None


def limit_law(config: "ExperimentConfig", score: ScoreFunction, theta,
              alpha, transfer) -> LimitLawConfig:
    """The limit law of ``score`` at ``theta`` with the tuning of ``config``.

    ``transfer`` is a process spec, whose exact transfer enters the law
    (for a scalar score as its cosine coefficients, the model
    autocorrelations), or for a scalar score a :class:`SmoothedTransfer`
    estimated from the data, which hands over its cosine coefficients.
    For a scalar score, ``theta`` and ``alpha`` may hold one value per
    series of a stack, with the smoothed transfer of that stack: the config
    then holds a stack of laws (:func:`prepare_limit`).
    """
    psi = None
    if score.is_matrix:
        transfer, psi = None, partial(transfer_matrix, transfer)
    elif isinstance(transfer, LinearProcessSpec):
        transfer = _model_acf(transfer)
    else:
        transfer = transfer.coeffs
    return LimitLawConfig(score=score, theta0=np.asarray(theta, dtype=float)[..., None],
                          alpha=alpha, transfer=transfer, psi_matrix=psi,
                          truncation=config.truncation,
                          quad_points=config.quad_points, reps=config.limit_reps,
                          scale_convention=config.scale_convention)


def _methods(config: "ExperimentConfig", score: ScoreFunction) -> tuple:
    """The methods run on ``score``: the SAC interval needs a scalar series."""
    return ("el",) if score.is_matrix else config.methods


def analyze_series(x: np.ndarray, score: ScoreFunction, alpha: float,
                   config: "ExperimentConfig", *,
                   rng: np.random.Generator | None = None, process=None,
                   theta_ref: float | None = None) -> AnalysisResult:
    """Confidence intervals for one series by the EL and/or SAC methods.

    ``config`` supplies the level, the methods, the theta grid and the
    limit-law and transfer settings; its ``process``, ``score``, ``n`` and
    replication fields are not read.  The EL threshold is the level-quantile
    of the limit law evaluated at ``theta_ref`` (default: the plug-in point
    from the estimating equation) with the transfer function either smoothed
    from the data or taken exactly from ``process``; the SAC interval
    targets the lag the score records, with the autocorrelations of
    ``process`` when it is known and the sample ones otherwise.  The stable
    ratio law is drawn from ``rng``.  This is the one-series case of the
    stacked setup (:func:`_analysis_setup`) and of :func:`_lockstep`.
    """
    if rng is None:
        raise ValueError("supply rng or precomputed quantiles")
    x = np.asarray(x, dtype=float)
    draws = sample_stable_ratio(alpha, config.limit_reps, rng, config.scale_convention)
    ratio_sq_q, ratio_abs_q = _ratio_quantiles(
        draws, config.level, "sac" in _methods(config, score))
    setup, = _analysis_setup(x[None], [alpha], [ratio_sq_q], None, [ratio_abs_q],
                             score=score, config=config, process=process,
                             theta_ref=theta_ref)
    return _lockstep([_analysis_steps(alpha, setup)])[0]


def _analysis_steps(alpha: float, setup):
    """The analysis of one series from its ``setup`` (one row of
    :func:`_analysis_setup`, or the exception that row raised), as a step
    generator for :func:`_lockstep`; returns the :class:`AnalysisResult`."""
    if isinstance(setup, Exception):
        raise setup
    theta_ref, gamma, sac, region = setup
    scan = None if region is None else (yield from region)
    return AnalysisResult(alpha=alpha, theta_ref=theta_ref, gamma=gamma,
                          el=scan, sac=sac)


def _analysis_setup(x, alpha, ratio_sq_q, sac_halfwidth, ratio_abs_q, *,
                    score, config, process, theta_ref=None) -> list:
    """``(theta_ref, gamma, SAC interval, region steps)`` of each series of
    the stack ``x``, (B, n) or (B, n, d), computed in one pass.

    ``alpha`` and ``ratio_sq_q``, the quantile of the squared ratio law, hold
    one value per series, and so does ``sac_halfwidth`` or, when that is
    None, ``ratio_abs_q``, the quantile of the absolute ratio law that the
    half-width is built from.  The periodogram, the rows ``a + theta b``,
    the plug-in points, the smoothed transfers, the limit laws and the SAC
    centres each take one array pass over the stack: every step treats the
    rows independently, so each series gets bitwise what it gets alone.
    Only the rows, the grid and the results outlive this call, so a chunk
    of replicates in lock-step holds no series, transfer or ratio draws.
    A failure of any series raises; :func:`_stack_setups` then finds the
    series it belongs to.
    """
    x = np.asarray(x, dtype=float)
    mv = score.is_matrix
    if mv and (x.ndim != 3 or x.shape[2] != score.dim):
        raise ValueError(f"score expects a series with {score.dim} columns")
    if not mv and x.ndim != 2:
        raise ValueError("scalar score expects a one-dimensional series")
    count, n = x.shape[:2]
    if n < MIN_SERIES_LENGTH:
        raise ValueError(f"series length must be at least {MIN_SERIES_LENGTH}, got {n}")
    if score.lag is not None and n <= score.lag:
        raise ValueError(f"series length {n} must exceed the score lag {score.lag}")
    methods = _methods(config, score)
    if "sac" in methods and score.lag is None:
        raise ValueError("the SAC method needs an autocorrelation score")
    alpha = np.array(alpha, dtype=float)
    alphas = alpha.tolist()  # the per-series scalars, as floats
    if theta_ref is None or "el" in methods:
        a, b = _affine_rows(x, score, alpha)
    if theta_ref is None:
        theta_ref = _affine_root(a.sum(axis=-1), b.sum(axis=-1), score, "plug-in point")
    theta_ref = np.broadcast_to(np.asarray(theta_ref, dtype=float), (count,))

    if mv or config.transfer_mode == "exact":
        if process is None:
            raise ValueError("the exact transfer (matrix scores, transfer_mode "
                             "'exact') needs the process spec")
        transfer = process
    else:
        transfer = SmoothedTransfer(x)

    if mv:  # the matrix law is computed one series at a time
        laws = [prepare_limit(limit_law(config, score, theta, value, transfer))
                for theta, value in zip(theta_ref, alphas)]
        closure = [law["closure"] for law in laws]
        w_inv = [law["w_inv"][0, 0] for law in laws]
    else:
        law = prepare_limit(limit_law(config, score, theta_ref, alpha, transfer))
        closure, w_inv = law["closure"], law["w_inv"][:, 0, 0]
    # each threshold is a product of scalars, as for one series
    gamma = [q * float(c) ** 2 * w for q, c, w in zip(ratio_sq_q, closure, w_inv)]

    sac = [None] * count
    if "sac" in methods:
        if sac_halfwidth is None:
            rho = transfer.acf if process is None else [_model_acf(process)] * count
            sac_halfwidth = [_sac_halfwidth(q, r, score.lag, value, n, config.truncation)
                             for q, r, value in zip(ratio_abs_q, rho, alphas)]
        centres = sample_acf(x, score.lag)
        sac = [ConfidenceInterval("sac", config.level, float(c) - h, float(c) + h)
               for c, h in zip(centres, sac_halfwidth)]

    region = [None] * count
    if "el" in methods:
        grid = theta_grid(score, config.grid_step, config.grid_min, config.grid_max)
        region = [_region_steps(a[i], b[i], grid, gamma[i], alphas[i], mv, config.level)
                  for i in range(count)]
    return [(float(t), g, s, r) for t, g, s, r in zip(theta_ref, gamma, sac, region)]


def _stack_setups(x, *rows, **shared) -> list:
    """:func:`_analysis_setup` of the stack ``x``, with the exception of each
    failing series in its place.

    ``rows`` are the per-series arguments (arrays of B values, or None).
    When the stacked pass raises, every series runs alone, so each gets its
    own result or its own exception, as one series at a time would.
    """
    try:
        return _analysis_setup(x, *rows, **shared)
    except (ValueError, RuntimeError) as exc:
        if len(x) == 1:
            return [exc]
        return [setup for i in range(len(x)) for setup in _stack_setups(
            x[i:i + 1], *(None if r is None else r[i:i + 1] for r in rows), **shared)]


# --------------------------------------------------------------------------
# experiment configuration

_ALLOWED = {
    "alpha_mode": {"known", "hill"},
    "transfer_mode": {"smoothed", "exact"},
}

# The declared types of the numeric fields of ExperimentConfig.
_NUMBER_TYPES = {"int", "int | None", "float", "float | None"}


def _check_number(name: str, value, declared: str) -> None:
    """Reject a ``value`` that does not have the ``declared`` numeric type:
    an integer (bools are not), or a finite real for a ``float`` field."""
    if value is None and declared.endswith("| None"):
        return
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if declared.startswith("int"):
        if not integer:
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif not ((integer or isinstance(value, (float, np.floating)))
              and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Serializable settings of an analysis: the one carrier of tuning values.

    Every layer (``analyze_series``, coverage runs, tables, the CLI) reads
    its settings from here.  The default process is the ``b = 0.5``,
    ``alpha = 1.5`` moving-average design of the studies.
    """

    process: dict = field(default_factory=lambda: {
        "kind": "ma", "alpha": 1.5, "psi": {"kind": "exp_over_j", "b": 0.5}})
    score: dict = field(default_factory=lambda: {"name": "acf_lag", "lag": 2})
    n: int = 300
    level: float = 0.9
    replicates: int = 1000
    seed: int = DEFAULT_SEED
    methods: tuple = ("el", "sac")
    alpha_mode: str = "known"
    hill_k: int | None = None
    transfer_mode: str = "smoothed"
    grid_min: float | None = None
    grid_max: float | None = None
    grid_step: float = 0.001
    limit_reps: int = 100_000
    truncation: int = 200
    quad_points: int = 4096
    scale_convention: object = "davis-resnick"
    workers: int | None = None

    def __post_init__(self):
        for name, spec in self.__dataclass_fields__.items():
            if spec.type in _NUMBER_TYPES:
                _check_number(name, getattr(self, name), spec.type)
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if self.n < MIN_SERIES_LENGTH:
            raise ValueError(f"series length must be at least {MIN_SERIES_LENGTH}")
        if self.replicates < 1:
            raise ValueError("replicates must be positive")
        if self.grid_step <= 0:
            raise ValueError("grid step must be positive")
        if self.limit_reps < 1000:
            raise ValueError("limit_reps must be at least 1000")
        if self.truncation < 1:
            raise ValueError(f"truncation must be at least 1, got {self.truncation}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        for name, allowed in _ALLOWED.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {sorted(allowed)}, "
                                 f"got {getattr(self, name)!r}")
        if (not isinstance(self.methods, (list, tuple))
                or not all(isinstance(m, str) for m in self.methods)):
            raise ValueError(f"methods must be a list of method names, "
                             f"got {self.methods!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        if not self.methods or not set(self.methods) <= {"el", "sac"}:
            raise ValueError(f"methods must be a subset of ('el', 'sac'), "
                             f"got {self.methods}")
        if isinstance(self.scale_convention, list):
            object.__setattr__(self, "scale_convention", tuple(self.scale_convention))

    def to_dict(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def build_process(self):
        return spec_from_dict(self.process)

    def build_score(self) -> ScoreFunction:
        return score_from_config(self.score)


# --------------------------------------------------------------------------
# coverage experiments

_COVERAGE_FIELDS = [
    "replicate", "status", "alpha", "theta_ref", "gamma",
    "el_lower", "el_upper", "el_length", "el_covered", "el_empty",
    "el_hull_failures", "el_solver_failures",
    "sac_lower", "sac_upper", "sac_length", "sac_covered",
]


def _fill_record(record: dict, steps, theta0: float):
    """Complete ``record`` from its replicate's analysis ``steps``, as a step
    generator for :func:`_lockstep`; a failure only marks its own record."""
    try:
        result = yield from steps
        record["theta_ref"] = result.theta_ref
        record["gamma"] = result.gamma
        if result.el is not None:
            scan = result.el
            record["el_hull_failures"] = scan.hull_failures
            record["el_solver_failures"] = scan.solver_failures
            record.update(interval_cells(scan.interval, "el_"))
            if scan.interval is None:
                record["el_empty"] = 1
            else:
                record["el_covered"] = int(scan.interval.covers(theta0))
        if result.sac is not None:
            record.update(interval_cells(result.sac, "sac_"))
            record["sac_covered"] = int(result.sac.covers(theta0))
    except (ValueError, RuntimeError) as exc:
        record["status"] = f"error: {type(exc).__name__}: {exc}"


def _coverage_chunk(config: ExperimentConfig, theta0: float,
                    ratio_sq_q: float | None, sac_halfwidth: float | None,
                    indices: range) -> list[dict]:
    """The records of a contiguous chunk of replicates.

    Each replicate simulates its series from its own rng substream and,
    with an estimated index, draws its own ratio law after it.  The chunk
    then stacks the series and sets up all of their analyses in one pass
    (:func:`_stack_setups`), and their region searches run in lock-step
    (:func:`_lockstep`).  A replicate that fails marks only its own record.
    """
    spec, score = config.build_process(), config.build_score()
    simulate = simulate_vector_linear if score.is_matrix else simulate_linear
    records, drawn = [], []
    for index in indices:
        record = {name: math.nan for name in _COVERAGE_FIELDS}
        record.update(replicate=index, status="ok", el_covered=0, el_empty=0,
                      sac_covered=0, el_hull_failures=0, el_solver_failures=0)
        records.append(record)
        try:
            rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1 + index)))
            x = simulate(spec, config.n, rng)
            if config.alpha_mode == "known":
                alpha = spec.noise.alpha
            else:
                alpha = float(np.clip(hill_estimator(x, config.hill_k), *_ALPHA_CLIP))
            record["alpha"] = alpha
            # the shared ratio law with a known index, else this series' own
            quantiles = ((ratio_sq_q, None) if ratio_sq_q is not None else _ratio_quantiles(
                sample_stable_ratio(alpha, config.limit_reps, rng, config.scale_convention),
                config.level, "sac" in config.methods))
            drawn.append((record, x, alpha, *quantiles))
        except (ValueError, RuntimeError) as exc:
            record["status"] = f"error: {type(exc).__name__}: {exc}"
    if drawn:
        live, x, alpha, sq_q, abs_q = zip(*drawn)
        halfwidth = None if sac_halfwidth is None else np.full(len(x), sac_halfwidth)
        setups = _stack_setups(np.stack(x), np.array(alpha), np.array(sq_q), halfwidth,
                               None if abs_q[0] is None else np.array(abs_q),
                               score=score, config=config, process=spec)
        _lockstep([_fill_record(record, _analysis_steps(a, setup), theta0)
                   for record, a, setup in zip(live, alpha, setups)])
    return records


def coverage_summary(records: list[dict], level: float) -> dict:
    """Aggregate per-replicate records into per-method coverage errors.

    The error is ``|misses/replicates - (1 - level)|`` over the replicates
    that completed; failed replicates are counted separately and excluded.
    """
    ok = [r for r in records if r["status"] == "ok"]
    summary = {"replicates": len(records), "failures": len(records) - len(ok)}
    for method in ("el", "sac"):
        rows = [r for r in ok if not math.isnan(r[f"{method}_lower"])
                or (method == "el" and r["el_empty"] == 1)]
        if not rows:
            continue
        misses = sum(1 - r[f"{method}_covered"] for r in rows)
        lengths = [r[f"{method}_length"] for r in rows
                   if not math.isnan(r[f"{method}_length"])]
        entry = {
            "used": len(rows),
            "misses": misses,
            "miss_rate": misses / len(rows),
            "coverage_error": abs(misses / len(rows) - (1.0 - level)),
            "mean_length": float(np.mean(lengths)) if lengths else math.nan,
        }
        if method == "el":
            entry["empty_regions"] = sum(r["el_empty"] for r in rows)
        summary[method] = entry
    return summary


@dataclass
class CoverageResult:
    """Per-replicate records plus the aggregated coverage errors."""

    config: ExperimentConfig
    records: list[dict]
    summary: dict

    def write_csv(self, path) -> None:
        # The worker count only affects scheduling, never the records, so it
        # is normalized out of the echoed config to keep output byte-stable
        # across thread counts.
        echo = replace(self.config, workers=None)
        meta = {"kind": "coverage", "config": echo.to_json()}
        write_csv(path, _COVERAGE_FIELDS, self.records, meta)


def coverage_experiment(config: ExperimentConfig) -> CoverageResult:
    """Replicated interval construction and empirical coverage errors.

    One rng substream per replicate keeps the records independent of the
    worker count; with known ``alpha`` the stable-ratio quantile is drawn
    once (stream 0) and shared across replicates, which is exact because the
    per-replicate thresholds are deterministic multiples of it.  Contiguous
    chunks of ``ceil(replicates / workers)`` replicates, at most 100, run in
    lock-step (:func:`_lockstep`): one batch solve per search round for the
    chunk, with the decision of one replicate at a time.  The chunks run
    on a pool of at most ``min(workers, chunks, CPUs)`` processes, serially
    when that is 1.
    """
    if config.replicates < 100:
        raise ValueError("coverage experiments need at least 100 replicates")
    score = config.build_score()
    spec = config.build_process()
    config = replace(config, methods=_methods(config, score))
    if config.alpha_mode == "hill" and score.is_matrix:
        raise ValueError("tail-index estimation is defined for scalar series")

    theta0 = pivotal_value(spec, score, config.quad_points)
    ratio_sq_q = sac_halfwidth = None
    if config.alpha_mode == "known":
        alpha = spec.noise.alpha
        rng0 = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        draws = sample_stable_ratio(alpha, config.limit_reps, rng0,
                                    config.scale_convention)
        ratio_sq_q, ratio_abs_q = _ratio_quantiles(draws, config.level,
                                                   "sac" in config.methods)
        if ratio_abs_q is not None:
            sac_halfwidth = _sac_halfwidth(ratio_abs_q, _model_acf(spec), score.lag,
                                           alpha, config.n, config.truncation)

    workers = config.workers
    if workers is None:
        workers = max(1, min(8, os.cpu_count() or 1))
    # At most 100 replicates per chunk: their first search round solves about
    # 4 rows each, a fifth of a full scan of the default grid, so peak memory
    # stays put while the solver's per-call cost is already spread thin.
    size = min(-(-config.replicates // workers), 100)
    chunks = [range(start, min(start + size, config.replicates))
              for start in range(0, config.replicates, size)]
    run = partial(_coverage_chunk, config, theta0, ratio_sq_q, sac_halfwidth)
    # processes beyond the chunks or the CPUs would only sit idle
    processes = min(workers, len(chunks), os.cpu_count() or 1)
    if processes <= 1:
        parts = map(run, chunks)
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(run, chunks))
    records = [record for part in parts for record in part]
    summary = coverage_summary(records, config.level)
    return CoverageResult(config=config, records=records, summary=summary)


# --------------------------------------------------------------------------
# table reproduction

_TABLE_BASE = {"n": 300, "alpha": 1.5, "b": 0.5}
_TABLES = {
    1: ("b", [("case-1", 0.5), ("case-2", 0.9)], False),
    2: ("alpha", [("case-3", 1.0), ("case-4", 1.5), ("case-5", 1.9)], False),
    3: ("n", [("case-6", 50), ("case-7", 100)], False),
    5: ("b", [("case-8", 0.0), ("case-9", 0.3), ("case-10", 0.6),
              ("case-11", 0.9)], True),
}


@dataclass
class TableResult:
    table_id: int
    seed: int
    param_name: str
    multivariate: bool
    rows: list[dict]

    @property
    def fieldnames(self) -> list[str]:
        names = ["case", self.param_name, "theta0",
                 "el_lower", "el_upper", "el_length"]
        if not self.multivariate:
            names += ["sac_lower", "sac_upper", "sac_length"]
        return names

    def write_csv(self, path) -> None:
        meta = {"kind": f"table-{self.table_id}", "seed": self.seed}
        write_csv(path, self.fieldnames, self.rows, meta)


def run_table(table_id: int, **fields) -> TableResult:
    """One-realization interval tables for the built-in study designs.

    Tables 1-3 vary the moving-average weight, the stability index, and the
    sample size of the scalar design (lag-2 autocorrelation, EL and SAC
    columns); table 5 is the two-dimensional coupling design (EL only).
    ``fields`` are :class:`ExperimentConfig` fields: the seed and the
    analysis settings apply, while each design fixes its own process, score
    and series length.  Each case consumes its own pair of rng substreams,
    so any single case is reproducible in isolation.
    """
    if table_id not in _TABLES:
        raise ValueError(f"table id must be one of {sorted(_TABLES)}, got {table_id}")
    config = ExperimentConfig.from_dict(fields)
    seed = config.seed
    param, cases, mv = _TABLES[table_id]
    rows = []
    for case_index, (label, value) in enumerate(cases):
        settings = dict(_TABLE_BASE)
        settings[param] = value
        n, alpha, b = settings["n"], settings["alpha"], settings["b"]
        rng_sim = np.random.default_rng(np.random.SeedSequence((seed, case_index, 0)))
        rng_lim = np.random.default_rng(np.random.SeedSequence((seed, case_index, 1)))
        if mv:
            spec = vma_table_spec(b, alpha=alpha)
            score = coupling_var1_score()
            x = simulate_vector_linear(spec, n, rng_sim)
        else:
            spec = ma_polynomial_spec(b, alpha=alpha)
            score = acf_score(2)
            x = simulate_linear(spec, n, rng_sim)
        theta0 = pivotal_value(spec, score, config.quad_points)
        result = analyze_series(x, score, alpha, config, rng=rng_lim, process=spec)
        row = {"case": label, param: value, "theta0": theta0,
               **interval_cells(result.el and result.el.interval, "el_")}
        if not mv:
            row.update(interval_cells(result.sac, "sac_"))
        rows.append(row)
    return TableResult(table_id=table_id, seed=seed, param_name=param,
                       multivariate=mv, rows=rows)


# --------------------------------------------------------------------------
# CSV plumbing

def interval_cells(interval: ConfidenceInterval | None, prefix: str = "") -> dict:
    """CSV cells ``lower``, ``upper`` and ``length`` of an interval, nan if absent."""
    values = ((math.nan,) * 3 if interval is None
              else (interval.lower, interval.upper, interval.length))
    return dict(zip((f"{prefix}lower", f"{prefix}upper", f"{prefix}length"), values))


def _format_cell(value) -> str:
    # ".10g" writes every nan as "nan" and the infinities as "inf"/"-inf"
    return format(value, ".10g") if isinstance(value, float) else str(value)


def render_csv(fieldnames: list[str], rows: list[dict], meta: dict) -> str:
    """Rows as CSV text with the schema-version header and meta comments."""
    buffer = io.StringIO()
    buffer.write(f"# {SCHEMA_VERSION}\n")
    for key, value in meta.items():
        buffer.write(f"# {key}={value}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_format_cell(row[name]) for name in fieldnames])
    return buffer.getvalue()


def write_csv(path, fieldnames: list[str], rows: list[dict], meta: dict) -> None:
    """Write rows with deterministic formatting; ``-`` targets stdout."""
    text = render_csv(fieldnames, rows, meta)
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def read_records_csv(path) -> list[dict]:
    """Read back a records CSV (numbers parsed, comments skipped)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(lines)
    records = []
    for row in reader:
        parsed = {}
        for key, value in row.items():
            try:
                parsed[key] = int(value)
            except (TypeError, ValueError):
                try:
                    parsed[key] = float(value)
                except (TypeError, ValueError):
                    parsed[key] = value
        records.append(parsed)
    return records


def _fields(text: str) -> list[str]:
    """The non-empty fields of a stripped row: split at commas when the row
    has one, at whitespace otherwise."""
    return [p for p in (text.split(",") if "," in text else text.split()) if p.strip()]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _is_header(fields: list[str]) -> bool:
    """A header row names its columns: none of its fields reads as a number."""
    return bool(fields) and not any(map(_is_number, fields))


def _parse_rows(lines, path) -> np.ndarray:
    """The line-by-line reader of :func:`ingest_csv`.

    Returns the (rows, columns) array, or raises the ``ValueError`` that
    names the first offending (1-based, physical) row.  It is the reference
    for, and the fallback of, the C reader in :func:`ingest_csv`.
    """
    rows, widths = [], set()
    first = True
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = _fields(text)
        if first:
            first = False
            if _is_header(parts):
                continue
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed row {lineno}: {text!r}") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value in row {lineno}: {text!r}")
        rows.append(values)
        widths.add(len(values))
    if not rows:
        raise ValueError(f"no data rows found in {path}")
    if len(widths) != 1:
        raise ValueError(f"inconsistent column counts {sorted(widths)} in {path}")
    return np.asarray(rows, dtype=float)


def ingest_csv(path, dim: int | None = None) -> np.ndarray:
    """Load a series from a CSV/whitespace table of finite reals.

    One column yields a scalar series, d columns a vector series.  Blank
    lines and lines whose first non-blank character is ``#`` are skipped; a
    first row in which no field reads as a number is a header and is
    skipped too.  Rows with a comma split at commas, others at whitespace.
    Malformed rows and non-finite entries are rejected with their (1-based,
    physical) row number.

    numpy's C reader parses the data rows; when it refuses them or reads a
    non-finite value, the line parser :func:`_parse_rows` reads the lines
    again and returns the same array or raises the row's error.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    rows = [text for line in lines if (text := line.strip()) and text[0] != "#"]
    if rows and _is_header(_fields(rows[0])):
        del rows[0]
    data = None
    if rows:
        try:
            data = np.loadtxt(rows, delimiter="," if "," in rows[0] else None,
                              comments=None, ndmin=2)
        except ValueError:
            pass
    if data is None or not np.isfinite(data).all():
        data = _parse_rows(lines, path)
    if dim is not None and data.shape[1] != dim:
        raise ValueError(f"expected {dim} column(s), found {data.shape[1]}")
    return data[:, 0] if data.shape[1] == 1 else data
