"""Reference evaluations that only the tests use: the periodograms and the
scalar transfer at arbitrary frequencies, by their direct sums, the EL
statistic at one theta, a reader of the records CSV, and the region search,
cosine fold and batch dual solver as they were before they stopped writing
a dense (S, G) state, a zero scratch row and fresh arrays in every
iteration."""

import csv

import numpy as np

from elstable import emplik
from elstable.emplik import BatchSolution, solve_lagrange_batch, x_n
from elstable.scores import estimating_function
from elstable.spectral import _self_normalized, _validated


def el_statistic(x: np.ndarray, score, theta, alpha: float) -> float:
    """The EL statistic ``-2 (x_n^2 / n) log R(theta)`` of a scalar series:
    +inf when zero is outside the hull of the rows, nan when the dual solve
    does not converge."""
    rows = estimating_function(x, score, theta, alpha)
    n = rows.size
    return float(-2.0 * x_n(n, alpha) ** 2 / n * solve_lagrange_batch(rows[None]).log_ratio[0])


def read_records_csv(path) -> list[dict]:
    """Read back a records CSV (numbers parsed, comments skipped)."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    records = []
    for row in csv.DictReader(lines):
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


def self_normalized_periodogram(x: np.ndarray, omega) -> np.ndarray:
    """Self-normalized periodogram at arbitrary frequencies (direct sum)."""
    xt = _self_normalized(np.asarray(x, dtype=float))
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    phases = np.exp(1j * np.outer(omega, np.arange(1, xt.size + 1)))
    values = np.abs(phases @ xt) ** 2
    return float(values[0]) if scalar else values


def periodogram_matrix(x: np.ndarray, alpha: float, omega) -> np.ndarray:
    """Matrix periodogram ``d(omega) d(omega)*`` of a vector series, with
    ``d(omega) = n**(-1/alpha) sum_t x[t] e^(i t omega)``."""
    x = _validated(x)
    n = x.shape[0]
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    d = n ** (-1.0 / alpha) * (np.exp(1j * np.outer(omega, np.arange(1, n + 1))) @ x)
    return d[:, :, None] * np.conj(d[:, None, :])


def transfer_polynomial(spec, omega) -> np.ndarray:
    """``Psi(omega) = sum_j psi[j] exp(i j omega)``."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    return np.exp(1j * np.outer(omega, np.arange(spec.psi.size))) @ spec.psi


def normalized_transfer(spec, omega) -> np.ndarray:
    """Normalized power transfer ``|Psi(omega)|**2 / sum_j psi[j]**2``, which
    integrates to ``2 pi`` over ``(-pi, pi]``."""
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    values = np.abs(transfer_polynomial(spec, omega)) ** 2 / np.sum(spec.psi ** 2)
    return float(values[0]) if scalar else values


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

    The state is the (S, G) array of statistics and the mask of probed grid
    points; each round derives the brackets from them.  The inside ends are
    the first and the last accepted index; each outside end is the nearest
    probed, rejected index beyond its inside end, or the virtual index -1 or
    G, which counts as rejected and is never solved.  Away from
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
    series; a grid end is probed exactly when the region reaches it.  None
    for a series whose slope is zero or takes both signs, whose probe's
    solve did not converge, or whose hull count is not confirmed.
    """
    last = grid.size - 1
    live = b.any(axis=1) & (np.all(b >= 0.0, axis=1) | np.all(b <= 0.0, axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):
        root = -a.sum(axis=1) / b.sum(axis=1)
        roots = -a / b
    stats = np.full((len(a), grid.size), np.nan)
    probed = np.zeros(stats.shape, dtype=bool)
    want = np.zeros(stats.shape, dtype=bool)  # every point asked for so far
    neighbours = np.searchsorted(grid, root)[:, None] + [-1, 0]
    want[np.arange(len(a))[:, None], np.clip(neighbours, 0, last)] = True
    index = np.arange(grid.size)
    target = np.sqrt(np.maximum(gamma, 0.0))
    budget = None
    while True:
        s, i = np.nonzero(want & ~probed & live[:, None])
        if s.size:
            batch = solve_lagrange_batch(a[s] + grid[i][:, None] * b[s])
            probed[s, i] = True
            stats[s, i] = scale[s] * batch.log_ratio
            live[s[~batch.converged & batch.hull_ok]] = False
        accepted = probed & (stats < gamma[:, None])
        rejected = probed & ~accepted
        inside = np.stack([_first(accepted), last - _first(accepted[:, ::-1])], axis=1)
        out = np.stack([last - _first((rejected & (index < inside[:, :1]))[:, ::-1]),
                        _first(rejected & (index > inside[:, 1:]))], axis=1)
        width = np.abs(out - inside)
        budget = width if budget is None else (budget + 1) // 2
        s, side = np.nonzero((live & accepted.any(axis=1))[:, None] & (width > 1))
        if not s.size:
            break
        end, far = inside[s, side], out[s, side]
        near = np.clip(far, 0, last)
        known = (far == near) & np.isfinite(stats[s, near])
        t_end, r_end = grid[end], np.sqrt(np.maximum(stats[s, end], 0.0))
        t_far = np.where(known, grid[near], root[s])
        r_far = np.where(known, np.sqrt(np.maximum(stats[s, near], 0.0)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            crossing = t_end + (target[s] - r_end) * (t_far - t_end) / (r_far - r_end)
        lo, hi = np.minimum(end, far) + 1, np.maximum(end, far) - 1
        mid = (lo + hi) // 2
        j = np.searchsorted(grid, crossing)
        secant = r_far != r_end
        want[s, np.where(secant, np.clip(j - 1, lo, hi), mid)] = True
        want[s, np.where(secant, np.clip(j, lo, hi), mid)] = True
        wide = width[s, side] > budget[s, side]
        want[s[wide], mid[wide]] = True
    nonzero = b != 0.0
    first = np.searchsorted(grid, np.where(nonzero, roots, np.inf).min(axis=1), side="right")
    stop = np.searchsorted(grid, np.where(nonzero, roots, -np.inf).max(axis=1), side="left")
    edges = np.stack([first - 1, first, stop - 1, stop], axis=1)
    s, e = np.nonzero(live[:, None] & (edges >= 0) & (edges <= last))
    edge = edges[s, e]
    rows = a[s] + grid[edge][:, None] * b[s]  # the batch solver's hull test on them
    hull_ok = ((rows.max(axis=1) > 0.0) & (rows.min(axis=1) < 0.0)) | ~rows.any(axis=1)
    live[s[hull_ok != ((first[s] <= edge) & (edge < stop[s]))]] = False
    hull_failures = grid.size - np.maximum(0, stop - first)
    return [(np.flatnonzero(probed[i]), stats[i, probed[i]], hull_failures[i])
            if live[i] else None for i in range(len(a))]


def _first(mask: np.ndarray) -> np.ndarray:
    """Index of the first True of each row of ``mask``, its length when none;
    on the reversed view ``G - 1`` minus it is the last, -1 when none."""
    first = mask.argmax(axis=1)
    return np.where(mask[np.arange(len(mask)), first], first, mask.shape[1])


def folded_cosine_coeffs(coeffs, points: int) -> np.ndarray:
    """The cosine series ``coeffs[0] + 2 sum_{h>=1} coeffs[h] cos(h omega)``
    folded onto the periodic grid ``omega_j = -pi + 2 pi j / points``.

    ``e^(i h omega_j) = (-1)**h e^(2 pi i h j / points)``, so lags ``+h`` and
    ``-h`` land in slots ``+h`` and ``-h mod points`` with sign ``(-1)**h``,
    and the series takes the values ``fft(folded).real`` on the grid.  The
    lags of one slot are added in increasing order, starting from zero.
    Leading axes of ``coeffs`` are rows folded one by one.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    h = np.arange(coeffs.shape[-1])
    signed = np.where(h % 2 == 1, -coeffs, coeffs)
    signed[..., 0] = 0.0  # lag 0 is not part of the one-sided sum
    one_sided = np.zeros(coeffs.shape[:-1] + (points,))
    for start in range(0, h.size, points):
        block = signed[..., start:start + points]
        one_sided[..., :block.shape[-1]] += block
    folded = one_sided.copy()
    folded[..., 1:] += one_sided[..., :0:-1]
    folded[..., 0] = coeffs[..., 0] + 2.0 * one_sided[..., 0]
    return folded


def solve_lagrange_batch_fresh(m: np.ndarray) -> BatchSolution:
    """The batch dual solver with a fresh array for every step: the bracket
    from every row's crossings, the ratios and their squares of each
    iteration, and the log ratios of all converged rows at the end.  It reads
    the solver's ``_MAX_ITER`` and ``_TOL``, so a patched cap holds for both."""
    m = np.asarray(m, dtype=float)
    b, n = m.shape
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
        for iteration in range(emplik._MAX_ITER + 1):
            ratio = rows / (1.0 + x[:, None] * rows)
            grad = ratio.sum(axis=1)
            done = np.abs(grad) / n < emplik._TOL
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
            if iteration == emplik._MAX_ITER:
                break
            right = grad > 0.0
            lo = np.where(right, x, lo)
            hi = np.where(right, hi, x)
            step = grad / (ratio * ratio).sum(axis=1)
            candidate = x + step
            outside = ~((candidate > lo) & (candidate < hi))
            candidate[outside] = 0.5 * (lo[outside] + hi[outside])
            x = candidate
        if work.size:
            phi[work] = x
            iterations[work] = emplik._MAX_ITER

    log_ratio = np.full(b, np.nan)
    log_ratio[~hull & ~zero] = -np.inf
    ok = converged.nonzero()[0]
    if ok.size:
        y = 1.0 + phi[ok, None] * m[ok]
        log_ratio[ok] = -np.log(y).sum(axis=1)
    return BatchSolution(phi=phi, log_ratio=log_ratio, converged=converged,
                         hull_ok=hull | zero, iterations=iterations)
