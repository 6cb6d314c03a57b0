"""Experiment engine: interval scans, table reproduction, coverage studies.

The confidence region for a scalar parameter is the set of grid points whose
EL statistic stays below the Monte-Carlo threshold ``gamma_p``; its hull is
reported as an interval.  The competing sample-autocorrelation interval is
``rho_hat(l) +/- q_p K / x_n`` with ``q_p`` the two-sided quantile of the
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
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .emplik import solve_lagrange_batch, x_n
from .errors import NumericalError
from .limitlaw import (LimitLawConfig, _trapezoid, _uniform_grid, prepare_limit,
                       ratio_quantiles, sac_series_constant)
from .processes import (LinearProcessSpec, _is_finite_real, check_number, ma_polynomial_spec,
                        power_transfer_matrix, simulate_linear, simulate_vector_linear,
                        spec_from_dict, theoretical_acf, transfer_matrix, vma_table_spec)
from .scores import (ScoreFunction, acf_score, coupling_var1_score,
                     estimating_function, estimating_function_mv, score_from_config)
from .spectral import (SmoothedTransfer, hill_estimator,
                       periodogram_matrix_grid, sample_acf, self_normalized_grid)

SCHEMA_VERSION = "elstable-csv 1"
DEFAULT_SEED = 20140214
MIN_SERIES_LENGTH = 8
# Every record of a coverage run is held in memory, and a theta grid is
# built whole; larger values are refused before anything is allocated.
MAX_REPLICATES = 1_000_000
MAX_GRID_POINTS = 1_000_000


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


def el_confidence_region(x: np.ndarray, score: ScoreFunction, grid: np.ndarray,
                         gamma: float, alpha: float, level: float = 0.9) -> RegionScan:
    """Keep the grid points whose EL statistic stays below ``gamma``.

    Hull failures enter as ``+inf`` statistics (the point is rejected).  The
    reported interval is the hull of the accepted grid points, ``None`` when
    the region is empty.
    The rows at every grid point are ``a + theta b`` (:func:`_affine_rows`),
    with ``b`` the periodogram weighted by the score's constant slope.

    With a one-signed slope ``b`` the region is an interval (Owen 1990,
    Monti 1997).  The autocorrelation scores have one, and so does the var1
    score: its slope is ``2 M^T M``, M the mask of the theta cells, so
    ``b_t = tr{2 M^T M I(lambda_t)} >= 0`` (Owen 2001, sec. 3.14).  The
    first and last accepted grid points are then found by a secant search
    on the square root of the statistic, safeguarded by bisection over grid
    indices (:func:`_search_regions`): about 3 batch solves of about 9 grid
    points in all, each with the decision a full scan makes there.
    ``thetas``, ``stats`` and ``accepted`` hold only the probed points: the
    smallest (largest) of them is the interval's lower (upper) end exactly
    when that end is the grid end.  ``hull_failures`` counts the whole
    grid.  A slope that is zero or takes both signs, a probe whose solve
    does not converge and an unconfirmed hull count raise
    :class:`NumericalError`.  This is the one-series case of
    :func:`_region_scans`.
    """
    a, b = _affine_rows(x, score, alpha)
    return _region_scans(a[None], b[None], grid, [gamma], [alpha], level)[0]


def _region_scans(a: np.ndarray, b: np.ndarray, grid: np.ndarray, gamma, alpha,
                  level: float) -> list:
    """:func:`el_confidence_region` of the rows ``a + theta b`` of each series
    of a stack: ``a`` and ``b`` are (S, n), and ``gamma`` and ``alpha`` hold
    one value per series.

    The searches of the whole stack run together (:func:`_search_regions`).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be a non-empty, strictly increasing 1-d array")
    n = a.shape[1]
    scale = np.array([-2.0 * x_n(n, value) ** 2 / n for value in alpha])
    gamma = np.array(gamma, dtype=float)
    scans = []
    for i, (probed, stats, hull_failures) in enumerate(
            _search_regions(a, b, grid, gamma, scale)):
        thetas = grid[probed]
        accepted = stats < gamma[i]  # +inf (hull failure) excluded
        inside = thetas[accepted]
        interval = (ConfidenceInterval("el", level, float(inside[0]), float(inside[-1]))
                    if inside.size else None)
        scans.append(RegionScan(thetas=thetas, stats=stats, gamma=float(gamma[i]),
                                level=level, accepted=accepted, interval=interval,
                                hull_failures=int(hull_failures)))
    return scans


def _search_regions(a: np.ndarray, b: np.ndarray, grid: np.ndarray, gamma: np.ndarray,
                    scale: np.ndarray) -> list:
    """Accepted grid interval of the rows ``a + theta b`` of each series of a
    stack, by a safeguarded secant search.

    ``a`` and ``b`` are (S, n); ``gamma`` and ``scale``, the factor
    ``-2 x_n^2 / n`` that turns a log ratio into the statistic, hold one
    value per series.  With a one-signed slope ``b`` the statistic is zero
    at the root ``theta_hat = -sum(a) / sum(b)`` and its sublevel sets are
    intervals, so the smallest grid statistic sits on one of the two grid
    neighbours of ``theta_hat``: the first round solves only them, and when
    neither is accepted the region is empty.

    The state is one bracket per series and side, held in (S, 2) arrays:
    the inside end (the first or the last accepted index), the outside end
    (the nearest probed, rejected index beyond it, or the virtual index -1
    or G, which counts as rejected and is never solved), the statistics at
    both, and the bisection budget.  No probed point lies strictly inside a
    bracket, so a round's probes move only their own bracket's ends (the
    first round's two points serve both sides), and a log of the solved
    (series, index, statistic) triples is all that is kept besides.  Away from
    ``theta_hat`` the square root of the statistic grows close to linearly,
    so every later round solves the two grid points around the secant
    estimate of ``sqrt(stat) = sqrt(gamma)`` in each open bracket, clipped
    strictly inside it.  The secant runs through the inside end and the
    outside end when that is a probed point with a finite statistic, else
    through ``(theta_hat, 0)``; without a usable secant the bracket's
    midpoint is solved instead.  As a safeguard, a bracket wider than
    bisection would have left it after as many rounds also gets its
    midpoint, so the search takes at most one round more than bisection
    (Brent 1973, ch. 4).  All probes of a round go to one batch solve, each
    on its own row, so every accept/reject decision is the one a full scan
    makes at that grid point.
    Zero lies inside the hull of the rows exactly on the open interval
    between the smallest and the largest root ``-a_t / b_t``, which counts
    the hull failures over the whole grid once the grid points next to its
    ends confirm it.

    Returns ``(probed indices, their statistics, hull failures)`` for each
    series; a grid end is probed exactly when the region reaches it.  A
    series whose slope is zero or takes both signs, whose probe's solve does
    not converge, or whose hull count is not confirmed raises
    :class:`NumericalError` naming it.
    """
    size, last, count = grid.size, grid.size - 1, len(a)
    one_signed = b.any(axis=1) & (np.all(b >= 0.0, axis=1) | np.all(b <= 0.0, axis=1))
    _unanswered(np.flatnonzero(~one_signed), "its slope is zero or takes both signs")
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -a.sum(axis=1) / b.sum(axis=1)
    target = np.sqrt(np.maximum(gamma, 0.0))
    # side 0 brackets the lower end, side 1 the upper; before any probe no
    # point is accepted and both outside ends are virtual
    inside = np.tile([size, -1], (count, 1))
    outside = np.tile([-1, size], (count, 1))
    stat_in, stat_out = np.full((count, 2), np.nan), np.full((count, 2), np.nan)
    # the probes of a round as (series, side, candidate indices): first the
    # two grid neighbours of theta_hat, for both sides
    s = np.repeat(np.arange(count), 2)
    side = np.tile([0, 1], count)
    neighbours = np.clip(np.searchsorted(grid, root)[:, None] + [-1, 0], 0, last)
    candidates = neighbours[s]
    log, budget = [(np.zeros(0, dtype=np.intp), np.zeros(0))], None
    while True:
        if s.size:
            wanted = s[:, None] * size + candidates
            keys = np.unique(wanted)  # in (series, index) order, each point once
            probe_s, probe_i = np.divmod(keys, size)
            batch = solve_lagrange_batch(_rows_at(a, b, probe_s, grid[probe_i]))
            stats = scale[probe_s] * batch.log_ratio
            _unanswered(probe_s[~batch.converged & batch.hull_ok],
                        "the dual solve of a probe did not converge")
            log.append((keys, stats))
            _move_brackets(inside, outside, stat_in, stat_out, s, side, candidates,
                           stats[np.searchsorted(keys, wanted)], gamma)
        width = np.abs(outside - inside)
        budget = width if budget is None else (budget + 1) // 2
        s, side = np.nonzero((inside[:, 0] < size)[:, None] & (width > 1))
        if not s.size:
            break
        end, far = inside[s, side], outside[s, side]
        near = np.clip(far, 0, last)
        known = (far == near) & np.isfinite(stat_out[s, side])
        t_end, r_end = grid[end], np.sqrt(np.maximum(stat_in[s, side], 0.0))
        t_far = np.where(known, grid[near], root[s])
        r_far = np.where(known, np.sqrt(np.maximum(stat_out[s, side], 0.0)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            crossing = t_end + (target[s] - r_end) * (t_far - t_end) / (r_far - r_end)
        lo, hi = np.minimum(end, far) + 1, np.maximum(end, far) - 1
        mid = (lo + hi) // 2
        j = np.searchsorted(grid, crossing)
        secant = r_far != r_end
        below = np.where(secant, np.clip(j - 1, lo, hi), mid)
        wide = width[s, side] > budget[s, side]
        candidates = np.stack([below, np.where(secant, np.clip(j, lo, hi), mid),
                               np.where(wide, mid, below)], axis=1)
    keys, stats = (np.concatenate(parts) for parts in zip(*log))
    order = np.argsort(keys)
    series, probed = np.divmod(keys[order], size)
    stats = stats[order]
    bounds = np.searchsorted(series, np.arange(count + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = np.divide(a, b)
    np.negative(roots, out=roots)  # -a / b to the bit
    flat = b == 0.0
    roots[flat] = np.inf
    first = np.searchsorted(grid, roots.min(axis=1), side="right")
    roots[flat] = -np.inf
    stop = np.searchsorted(grid, roots.max(axis=1), side="left")
    edges = np.stack([first - 1, first, stop - 1, stop], axis=1)
    s, e = np.nonzero((edges >= 0) & (edges <= last))
    edge = edges[s, e]
    rows = _rows_at(a, b, s, grid[edge])  # the batch solver's hull test on them
    hull_ok = ((rows.max(axis=1) > 0.0) & (rows.min(axis=1) < 0.0)) | ~rows.any(axis=1)
    _unanswered(s[hull_ok != ((first[s] <= edge) & (edge < stop[s]))],
                "the grid points next to its hull ends do not confirm the hull count")
    hull_failures = grid.size - np.maximum(0, stop - first)
    return [(probed[bounds[i]:bounds[i + 1]], stats[bounds[i]:bounds[i + 1]],
             hull_failures[i]) for i in range(count)]


def _unanswered(series: np.ndarray, cause: str) -> None:
    """Raise :class:`NumericalError` for the first of ``series``, indices of
    a stack whose regions the search cannot answer, naming it and ``cause``."""
    if series.size:
        raise NumericalError(f"the region search cannot answer series {series.min()} "
                             f"of its stack: {cause}")


def _rows_at(a: np.ndarray, b: np.ndarray, series: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The rows ``a[series] + theta b[series]``, one per (series, theta)
    pair, built in one buffer: bitwise the expression itself."""
    rows = b[series]
    rows *= theta[:, None]
    rows += a[series]
    return rows


def _move_brackets(inside, outside, stat_in, stat_out, s, side, candidates, stats,
                   gamma) -> None:
    """Update the brackets ``(s, side)`` in place with the solved statistics
    ``stats`` of their ``candidates``, one row of indices per bracket.

    Measured outward (downwards on side 0, upwards on side 1) every
    candidate lies beyond its inside end and short of its outside end.  The
    inside end moves to the farthest accepted candidate; the outside end to
    the nearest rejected one beyond the new inside end, when that is nearer
    than the old one.
    """
    sign = np.where(side == 0, -1, 1)
    rows = np.arange(len(s))
    outward = sign[:, None] * candidates
    accepted = stats < gamma[s][:, None]
    pick = np.argmax(np.where(accepted, outward, np.iinfo(np.intp).min), axis=1)
    moved = accepted[rows, pick] & (outward[rows, pick] > sign * inside[s, side])
    inside[s, side] = np.where(moved, candidates[rows, pick], inside[s, side])
    stat_in[s, side] = np.where(moved, stats[rows, pick], stat_in[s, side])
    rejected = ~accepted & (outward > (sign * inside[s, side])[:, None])
    pick = np.argmin(np.where(rejected, outward, np.iinfo(np.intp).max), axis=1)
    moved = rejected[rows, pick] & (outward[rows, pick] < sign * outside[s, side])
    outside[s, side] = np.where(moved, candidates[rows, pick], outside[s, side])
    stat_out[s, side] = np.where(moved, stats[rows, pick], stat_out[s, side])


def theta_grid(score: ScoreFunction, step: float = 0.001,
               lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Uniform parameter grid over the score domain, clipped to ``+/-0.999``;
    explicit ends ``lo`` and ``hi`` must keep it strictly inside the domain."""
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    dlo, dhi = score.domain
    lo = max(dlo + step, -0.999) if lo is None else float(lo)
    hi = min(dhi - step, 0.999) if hi is None else float(hi)
    if not lo < hi:
        raise ValueError(f"empty grid: [{lo}, {hi}]")
    if not (hi - lo) / step <= MAX_GRID_POINTS - 1:
        raise ValueError(f"grid step {step:g} over [{lo:g}, {hi:g}] gives more than "
                         f"{MAX_GRID_POINTS} grid points")
    grid = lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    if not (dlo < grid[0] and grid[-1] < dhi):
        raise ValueError(f"grid [{grid[0]:g}, {grid[-1]:g}] is not inside the domain "
                         f"({dlo:g}, {dhi:g}) of score {score.name!r}")
    return grid


# --------------------------------------------------------------------------
# affine scores: rows, plug-in points and pivotal values in closed form

def _affine_root(a, b, score: ScoreFunction, what: str):
    """Root ``-a / b`` of ``a + theta b``, which must lie in the score domain;
    one root per row for arrays, a float otherwise."""
    lo, hi = score.domain
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -np.asarray(a) / b + 0.0  # + 0.0 turns -0.0 into 0.0
    outside = ~((lo < root) & (root < hi))
    if np.any(outside):
        raise NumericalError(f"the {what} {root[outside][0]:.6g} of score {score.name!r} "
                             f"is not in its domain ({lo}, {hi})")
    return root if root.ndim else float(root)


def _affine_rows(x: np.ndarray, score: ScoreFunction, alpha):
    """Estimating-function rows ``m_t(theta) = a_t + theta b_t`` as ``(a, b)``.

    ``a`` is the rows at theta = 0, and ``b`` the periodogram weighted by
    the score's constant ``slope``: ``slope * I_t`` for a scalar score and
    ``tr{slope I(lambda_t)}`` for a matrix score.  This is the one place
    that picks the row builder, which runs once on one periodogram.  A
    stack of scalar series (B, n), with one ``alpha`` or B of them, gives
    (B, n) rows in one pass; a stack of vector series (B, n, d) is
    decomposed one series at a time.
    """
    x = np.asarray(x, dtype=float)
    if score.is_matrix and x.ndim == 3:
        pairs = [_affine_rows(series, score, value)
                 for series, value in zip(x, np.broadcast_to(alpha, len(x)).tolist())]
        return tuple(np.array(part) for part in zip(*pairs))
    if score.is_matrix:
        periodogram = periodogram_matrix_grid(x, alpha)
        a = estimating_function_mv(x, score, 0.0, alpha, periodogram=periodogram)
        return a, np.einsum("ab,tba->t", score.slope, periodogram).real
    periodogram = self_normalized_grid(x)
    a = estimating_function(x, score, 0.0, alpha, periodogram=periodogram)
    return a, periodogram * score.slope


def pivotal_value(spec, score: ScoreFunction, quad_points: int = 4096) -> float:
    """Parameter value targeted by the score under a known process.

    Solves ``integral  tr{ d(1/f)/d theta (omega; theta) g(omega) } d omega = 0``
    for theta, with ``g`` the exact power transfer of ``spec``.  For the
    autocorrelation score at lag l, whose ``d(1/f)/d theta`` is
    ``2 theta - 2 cos(l omega)``, the root is the model autocorrelation
    ``rho(l)`` in closed form; other scalar scores raise ``ValueError``.
    For a matrix score the ``quad_points`` trapezoid rule of the integral is
    affine in theta, ``A + theta B``, like the rows, with ``A`` and ``B``
    the rules of ``tr{intercept g}`` and ``tr{slope g}``, so the value is
    ``-A / B``.  :class:`NumericalError` when the value falls outside the
    score domain; the score's ``check`` raises where it is not a valid
    coupling value.
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
    intercept = _trapezoid(np.einsum("tab,tba->t", score.intercept(grid), g).real, grid)
    slope = _trapezoid(np.einsum("ab,tba->t", score.slope, g).real, grid)
    root = _affine_root(intercept, slope, score, "pivotal value")
    if score.check is not None:
        score.check(root)
    return root


def _model_acf(spec: LinearProcessSpec) -> np.ndarray:
    """Autocorrelations ``rho(0..order)`` of ``spec``: the cosine
    coefficients of its normalized power transfer.

    One correlation of ``psi`` with itself takes the dot product of each lag
    as :func:`theoretical_acf` does, to the bit; only ``psi @ psi`` itself
    takes another BLAS path (a product of an array with itself), so lag 0
    takes it from there.
    """
    psi = spec.psi
    sums = np.correlate(psi, psi, "full")[spec.order:]
    sums[0] = psi @ psi
    return sums / sums[0]


def whittle_point(x: np.ndarray, score: ScoreFunction, alpha: float) -> float:
    """Plug-in evaluation point: the root of the summed estimating function.

    This is the frequency-domain analogue of the point estimate the EL
    region contracts to; for the autocorrelation score it is within O(1/n)
    of the sample autocorrelation.  With the rows ``a + theta b`` of
    :func:`_affine_rows` it is ``-sum(a) / sum(b)``; :class:`NumericalError`
    when the root falls outside the score domain.
    """
    a, b = _affine_rows(x, score, alpha)
    return _affine_root(a.sum(axis=-1), b.sum(axis=-1), score, "plug-in point")


# --------------------------------------------------------------------------
# the tail index behind both intervals

def _check_hill_k(k: int | None, n: int) -> None:
    """Refuse a config's ``hill_k`` outside ``[1, n - 1]`` for series of length ``n``."""
    if k is not None and not 1 <= k <= n - 1:
        raise ValueError(f"hill_k must lie in [1, n - 1] = [1, {n - 1}], got {k}")


def hill_alpha(x: np.ndarray, k: int | None = None) -> tuple:
    """``(estimate, clipped)``: the Hill estimate of the tail index of ``x``
    from its top ``k`` order statistics (the config's ``hill_k``), and its
    value clipped into ``[1, 1.99]``, the range the inference admits; a
    clipped estimate signals a misspecified tail."""
    _check_hill_k(k, len(x))
    estimate = hill_estimator(x, k)
    return estimate, float(np.clip(estimate, 1.0, 1.99))


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
    estimated from the data, which hands over its cosine coefficients, or
    those coefficients themselves.  ``theta`` and ``alpha`` may hold one
    value per series of a stack, with the smoothed transfer of that stack or
    the one process spec: the config then holds a stack of laws
    (:func:`prepare_limit`).
    """
    psi = None
    if score.is_matrix:
        transfer, psi = None, partial(transfer_matrix, transfer)
    elif isinstance(transfer, LinearProcessSpec):
        transfer = _model_acf(transfer)
    elif isinstance(transfer, SmoothedTransfer):
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
                   config: "ExperimentConfig", *, rng: np.random.Generator,
                   process=None) -> AnalysisResult:
    """Confidence intervals for one series by the EL and/or SAC methods.

    ``config`` supplies the level, the methods, the theta grid and the
    limit-law and transfer settings; its ``process``, ``score``, ``n`` and
    replication fields are not read.  The EL threshold is the level-quantile
    of the limit law evaluated at the plug-in point ``theta_ref`` of the
    estimating equation, with the transfer function either smoothed
    from the data or taken exactly from ``process``; the SAC interval
    targets the lag the score records, with the autocorrelations of
    ``process`` when it is known and the sample ones otherwise.  The stable
    ratio law is drawn from ``rng``.  This is the one-series case of the
    stacked analysis (:func:`_analyze_stack`).
    """
    quantiles = ratio_quantiles(alpha, config.level, config.limit_reps, rng,
                                config.scale_convention)
    return _analyze_stack([x], [alpha], [quantiles], score=score, config=config,
                          process=process)[0]


def _analyze_stack(x, alpha, quantiles, *, score, config, process) -> list:
    """The :class:`AnalysisResult` of each series of the stack ``x``, (B, n)
    or (B, n, d), computed in one pass.

    ``alpha`` holds one value per series, and ``quantiles`` one pair of
    ratio-law quantiles (:func:`ratio_quantiles`) per series: the squared
    one scales into the EL threshold ``q closure^2 / W``, the absolute one
    into the SAC half-width ``q K / x_n`` (Davis & Resnick 1986).  ``K``
    takes the series' sample autocorrelations, or with ``process`` known
    its model autocorrelations, computed once for the stack, and then one
    ``K`` per distinct ``alpha``.  The periodogram, the rows ``a + theta b``,
    the plug-in points, the smoothed transfers, the limit laws, the SAC
    centres and the region searches (:func:`_region_scans`) each take one
    array pass over the stack: every step treats the rows independently, so
    each series gets bitwise what it gets alone.  A failure of any series
    raises; :func:`_stack_results` then finds the series it belongs to.
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
    grid = (theta_grid(score, config.grid_step, config.grid_min, config.grid_max)
            if "el" in methods else None)
    alpha = np.array(alpha, dtype=float)
    alphas = alpha.tolist()  # the per-series scalars, as floats
    sq_q, abs_q = np.array(quantiles, dtype=float).T.tolist()
    a, b = _affine_rows(x, score, alpha)
    theta_ref = _affine_root(a.sum(axis=-1), b.sum(axis=-1), score, "plug-in point")

    if mv or config.transfer_mode == "exact":
        if process is None:
            raise ValueError("the exact transfer (matrix scores, transfer_mode "
                             "'exact') needs the process spec")
        # a scalar score's exact law and SAC constant share the model autocorrelations
        transfer = process if mv else _model_acf(process)
    else:
        transfer = SmoothedTransfer(x)

    law = prepare_limit(limit_law(config, score, theta_ref, alpha, transfer))
    closure, w_inv = law["closure"], law["w_inv"]
    # each threshold and half-width is a product of scalars, as for one series
    gamma = [q * float(c) ** 2 * w for q, c, w in zip(sq_q, closure, w_inv)]

    sac = [None] * count
    if "sac" in methods:
        if process is None:
            constants = [sac_series_constant(rho, score.lag, value, config.truncation)
                         for rho, value in zip(transfer.acf, alphas)]
        else:
            rho = transfer if config.transfer_mode == "exact" else _model_acf(process)
            by_alpha = {value: sac_series_constant(rho, score.lag, value, config.truncation)
                        for value in set(alphas)}
            constants = [by_alpha[value] for value in alphas]
        centres = sample_acf(x, score.lag)
        halfwidths = [q * k / x_n(n, value) for q, k, value in zip(abs_q, constants, alphas)]
        sac = [ConfidenceInterval("sac", config.level, float(c) - h, float(c) + h)
               for c, h in zip(centres, halfwidths)]

    scans = [None] * count
    if "el" in methods:
        scans = _region_scans(a, b, grid, gamma, alphas, config.level)
    return [AnalysisResult(alpha=value, theta_ref=float(t), gamma=g, el=scan, sac=s)
            for value, t, g, scan, s in zip(alphas, theta_ref, gamma, scans, sac)]


def _stack_results(x, alpha, quantiles, **shared) -> list:
    """:func:`_analyze_stack` of the stack ``x``, with the exception of each
    failing series in its place.

    When the stacked pass raises, each half of the stack is retried the same
    way, down to single series: one failing series of B costs at most
    ``2 ceil(log2 B)`` more passes, and each series gets its own result or
    its own exception, as one series at a time would.
    """
    try:
        return _analyze_stack(x, alpha, quantiles, **shared)
    except (ValueError, RuntimeError) as exc:
        if len(x) == 1:
            return [exc]
        half = len(x) // 2
        return (_stack_results(x[:half], alpha[:half], quantiles[:half], **shared)
                + _stack_results(x[half:], alpha[half:], quantiles[half:], **shared))


# --------------------------------------------------------------------------
# experiment configuration

_ALLOWED = {
    "alpha_mode": {"known", "hill"},
    "transfer_mode": {"smoothed", "exact"},
}

# The declared types of the numeric fields of ExperimentConfig.
_NUMBER_TYPES = {"int", "int | None", "float", "float | None"}


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
            value = getattr(self, name)
            if spec.type in _NUMBER_TYPES:
                if not (value is None and spec.type.endswith("| None")):
                    check_number(value, name, integer=spec.type.startswith("int"))
            elif spec.type == "dict" and not isinstance(value, dict):
                raise ValueError(f"{name} must be a JSON object, got {value!r}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if self.n < MIN_SERIES_LENGTH:
            raise ValueError(f"series length must be at least {MIN_SERIES_LENGTH}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not 1 <= self.replicates <= MAX_REPLICATES:
            raise ValueError(f"replicates must lie in [1, {MAX_REPLICATES}], "
                             f"got {self.replicates}")
        if self.grid_step <= 0:
            raise ValueError("grid step must be positive")
        if self.limit_reps < 1000:
            raise ValueError("limit_reps must be at least 1000")
        if self.truncation < 1:
            raise ValueError(f"truncation must be at least 1, got {self.truncation}")
        if self.hill_k is not None and self.hill_k < 1:
            raise ValueError(f"hill_k must be at least 1, got {self.hill_k}")
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        for name, allowed in _ALLOWED.items():
            if not isinstance(getattr(self, name), str) or getattr(self, name) not in allowed:
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
        pair = self.scale_convention
        if not (isinstance(pair, str) and pair == "davis-resnick"):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(_is_finite_real(value) and value > 0 for value in pair)):
                raise ValueError(f"scale_convention must be 'davis-resnick' or a pair of "
                                 f"finite positive numbers, got {pair!r}")
            object.__setattr__(self, "scale_convention", tuple(pair))

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


def _fill_record(record: dict, result, theta0: float) -> None:
    """Complete ``record`` from its replicate's :class:`AnalysisResult`, or
    mark it with the exception its analysis raised."""
    if isinstance(result, Exception):
        record["status"] = f"error: {type(result).__name__}: {result}"
        return
    record["theta_ref"] = result.theta_ref
    record["gamma"] = result.gamma
    if result.el is not None:
        scan = result.el
        record["el_hull_failures"] = scan.hull_failures
        record.update(interval_cells(scan.interval, "el_"))
        if scan.interval is None:
            record["el_empty"] = 1
        else:
            record["el_covered"] = int(scan.interval.covers(theta0))
    if result.sac is not None:
        record.update(interval_cells(result.sac, "sac_"))
        record["sac_covered"] = int(result.sac.covers(theta0))


def _coverage_chunk(config: ExperimentConfig, theta0: float, quantiles: tuple | None,
                    indices: range) -> list[dict]:
    """The records of a contiguous chunk of replicates.

    Each replicate simulates its series from its own rng substream and
    takes the shared ratio-law ``quantiles`` of a known index, or with an
    estimated index (``quantiles`` None) draws its own after it.  The chunk
    then stacks the series and analyzes all of them in one pass, region
    searches included (:func:`_stack_results`).  A replicate that fails
    marks only its own record.
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
            known = config.alpha_mode == "known"
            alpha = spec.noise.alpha if known else hill_alpha(x, config.hill_k)[1]
            record["alpha"] = alpha
            # the shared ratio law with a known index, else this series' own
            drawn.append((record, x, alpha, quantiles if known else ratio_quantiles(
                alpha, config.level, config.limit_reps, rng, config.scale_convention)))
        except (ValueError, RuntimeError) as exc:
            _fill_record(record, exc, theta0)
    if drawn:
        live, x, alpha, pairs = zip(*drawn)
        results = _stack_results(np.stack(x), np.array(alpha), np.array(pairs),
                                 score=score, config=config, process=spec)
        for record, result in zip(live, results):
            _fill_record(record, result, theta0)
    return records


def coverage_summary(records: list[dict], level: float) -> dict:
    """Aggregate per-replicate records into per-method coverage errors.

    The error is ``|misses/replicates - (1 - level)|`` over the replicates
    that completed; failed replicates are counted separately and excluded.
    Each miss rate ``p`` carries its binomial standard error ``sqrt(p (1 -
    p) / used)`` and each mean length the standard error of a mean, the
    sample standard deviation over the root of the count (nan for fewer
    than two lengths).
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
        rate = misses / len(rows)
        entry = {
            "used": len(rows),
            "misses": misses,
            "miss_rate": rate,
            "miss_rate_se": math.sqrt(rate * (1.0 - rate) / len(rows)),
            "coverage_error": abs(rate - (1.0 - level)),
            "mean_length": float(np.mean(lengths)) if lengths else math.nan,
            "mean_length_se": (float(np.std(lengths, ddof=1)) / math.sqrt(len(lengths))
                               if len(lengths) > 1 else math.nan),
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
    chunks of ``ceil(replicates / workers)`` replicates, at most 100, are
    each analyzed as one stack (:func:`_coverage_chunk`): one batch solve
    per search round for the chunk, with the decision of one replicate at a
    time.  ``workers`` counts processes, the calling one included: the
    chunks run on ``P = min(workers, chunks, CPUs)`` of them, the caller
    running every P-th chunk (0, P, 2P, ...) and a pool of P - 1 forked
    workers the rest, or all in the caller when P is 1.
    """
    if config.replicates < 100:
        raise ValueError("coverage experiments need at least 100 replicates")
    score = config.build_score()
    spec = config.build_process()
    config = replace(config, methods=_methods(config, score))
    if config.alpha_mode == "hill" and score.is_matrix:
        raise ValueError("tail-index estimation is defined for scalar series")
    # a bad hill_k or grid is the config's error, not a replicate's
    if config.alpha_mode == "hill":
        _check_hill_k(config.hill_k, config.n)

    if "el" in config.methods:
        theta_grid(score, config.grid_step, config.grid_min, config.grid_max)
    theta0 = pivotal_value(spec, score, config.quad_points)
    quantiles = None
    if config.alpha_mode == "known":
        rng0 = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        quantiles = ratio_quantiles(spec.noise.alpha, config.level, config.limit_reps, rng0,
                                    config.scale_convention)

    workers = config.workers
    if workers is None:
        workers = max(1, min(8, os.cpu_count() or 1))
    # At most 100 replicates per chunk: their first search round solves about
    # 4 rows each, a fifth of a full scan of the default grid, so peak memory
    # stays put while the solver's per-call cost is already spread thin.
    size = min(-(-config.replicates // workers), 100)
    chunks = [range(start, min(start + size, config.replicates))
              for start in range(0, config.replicates, size)]
    run = partial(_coverage_chunk, config, theta0, quantiles)
    # processes beyond the chunks or the CPUs would only sit idle
    processes = min(workers, len(chunks), os.cpu_count() or 1)
    if processes <= 1:
        parts = map(run, chunks)
    else:
        # The caller is one of the processes: it runs chunks 0, P, 2P, ...
        # while the pool's P - 1 workers run the others.
        import concurrent.futures  # here, so that a run without a pool does not load it

        with concurrent.futures.ProcessPoolExecutor(max_workers=processes - 1) as pool:
            futures = {i: pool.submit(run, chunks[i])
                       for i in range(len(chunks)) if i % processes}
            own = {i: run(chunks[i]) for i in range(0, len(chunks), processes)}
        parts = [own[i] if i in own else futures[i].result() for i in range(len(chunks))]
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
