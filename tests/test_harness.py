"""Interval construction, experiment configs, coverage runs, and CSV plumbing."""

import concurrent.futures
import json
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
import warnings
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elstable import harness
from elstable.harness import (DEFAULT_SEED, SCHEMA_VERSION, ConfidenceInterval,
                              ExperimentConfig, analyze_series, coverage_experiment,
                              coverage_summary, el_confidence_region, ingest_csv,
                              pivotal_value, render_csv, run_table, theta_grid,
                              whittle_point, write_csv, _format_cell)
from elstable.emplik import solve_lagrange_batch, x_n
from elstable.errors import NumericalError
from elstable.limitlaw import prepare_limit, sample_stable_ratio
from elstable.processes import (LinearProcessSpec, StableParams, ma_polynomial_spec,
                                simulate_linear, simulate_vector_linear,
                                theoretical_acf, transfer_matrix, vma_table_spec)
from elstable.scores import (ScoreFunction, acf_score, coupling_var1_score,
                             estimating_function, estimating_function_mv)
from elstable.spectral import acf_sequence, sample_acf, self_normalized_grid
import oracles
from oracles import el_statistic, read_records_csv

PROC_HALF = {"kind": "ma", "alpha": 1.5, "psi": {"kind": "exp_over_j", "b": 0.5}}


# --------------------------------------------------------------------------
# intervals and scans

def test_confidence_interval_basics():
    ci = ConfidenceInterval("sac", 0.9, -0.1, 0.3)
    assert ci.length == pytest.approx(0.4)
    assert ci.covers(0.0) and ci.covers(0.3) and not ci.covers(0.31)
    with pytest.raises(ValueError):
        ConfidenceInterval("sac", 0.9, 0.3, -0.1)


def test_theta_grid_respects_domain_and_step():
    grid = theta_grid(acf_score(2), step=0.01)
    assert grid[0] >= -0.999 and grid[-1] <= 0.999
    np.testing.assert_allclose(np.diff(grid), 0.01, rtol=1e-9)
    # the ends derive from the domain (-1, 1): one step inside it, clipped
    # to +/-0.999, and the last point within half a step of its end
    for step in (0.3, 0.07, 0.001, 0.0004, 1e-5):
        grid = theta_grid(acf_score(2), step=step)
        lo, hi = max(-1.0 + step, -0.999), min(1.0 - step, 0.999)
        assert grid[0] == lo and abs(grid[-1] - hi) <= step / 2 and grid[-1] < 1.0
    with pytest.raises(ValueError):
        theta_grid(acf_score(2), step=-0.1)
    # a step that leaves no point inside the domain is refused, by a coverage
    # run before any replicate
    with pytest.raises(ValueError, match="empty grid"):
        theta_grid(acf_score(2), step=1.0)
    with pytest.raises(ValueError, match="empty grid"):
        coverage_experiment(ExperimentConfig(grid_step=1.0))


def test_region_scan_matches_pointwise_statistics(series_half):
    score = acf_score(2)
    grid = np.linspace(-0.4, 0.6, 21)
    gamma = 2.5
    scan = el_confidence_region(series_half, score, grid, gamma, 1.5)
    for theta, stat, accepted in zip(scan.thetas, scan.stats, scan.accepted):
        single = el_statistic(series_half, score, theta, 1.5)
        if math.isfinite(stat):
            assert abs(stat - single) < 1e-8
        assert accepted == (single < gamma)
    inside = scan.thetas[scan.accepted]
    assert scan.interval.lower == pytest.approx(inside[0])
    assert scan.interval.upper == pytest.approx(inside[-1])


def test_region_scan_empty_when_threshold_is_zero(series_half):
    score = acf_score(2)
    grid = np.linspace(-0.4, 0.6, 21)
    scan = el_confidence_region(series_half, score, grid, 0.0, 1.5)
    assert scan.interval is None and not scan.accepted.any()


def full_scan(x, score, grid, gamma, alpha):
    """Oracle: the batch statistic on every grid point.

    Returns ``(interval, hull failures)`` with the interval as the first and
    last accepted grid point.
    """
    builder = estimating_function_mv if score.is_matrix else estimating_function
    rows = np.array([builder(x, score, theta, alpha) for theta in grid])
    batch = solve_lagrange_batch(rows)
    stats = -2.0 * x_n(rows.shape[1], alpha) ** 2 / rows.shape[1] * batch.log_ratio
    inside = grid[stats < gamma]
    interval = (float(inside[0]), float(inside[-1])) if inside.size else None
    return interval, int(np.sum(~batch.hull_ok))


def same(one, other) -> bool:
    """Bitwise equality of two results: dataclasses field by field, arrays
    and numbers by their bytes."""
    if is_dataclass(one):
        return type(one) is type(other) and all(
            same(getattr(one, f.name), getattr(other, f.name)) for f in fields(one))
    if one is None or other is None:
        return one is other
    return (type(one) is type(other)
            and np.asarray(one).tobytes() == np.asarray(other).tobytes())


def counting(calls):
    """``solve_lagrange_batch`` that appends the size of every batch to ``calls``."""
    def solver(m):
        calls.append(len(m))
        return solve_lagrange_batch(m)
    return solver


def searched(x, score, grid, gamma, alpha):
    """``el_confidence_region`` in the oracle's form, plus its probe count and
    its number of batch-solver calls."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "solve_lagrange_batch", counting(calls))
        scan = el_confidence_region(x, score, grid, gamma, alpha)
    interval = None if scan.interval is None else (scan.interval.lower,
                                                   scan.interval.upper)
    # the grid ends are probed only when the region reaches them
    if interval is not None:
        assert (scan.thetas[0] == interval[0]) == (interval[0] == grid[0])
        assert (scan.thetas[-1] == interval[1]) == (interval[1] == grid[-1])
    return (interval, scan.hull_failures), scan.thetas.size, len(calls)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([50, 120, 300]),
       lag=st.integers(1, 3),
       gamma=st.sampled_from([0.0, 0.3, 2.0, 8.0, 1e6]) | st.floats(0.0, 50.0),
       step=st.sampled_from([0.001, 0.0137, 0.2]))
def test_region_search_matches_full_scan(seed, n, lag, gamma, step):
    # gamma = 0 gives the empty region and 1e6 reaches both grid ends; at
    # n = 50 the grid runs past the extreme roots, so hull failures occur.
    # The midpoint safeguard keeps the search within one round of bisection.
    x = simulate_linear(ma_polynomial_spec(0.5), n, np.random.default_rng(seed))
    score = acf_score(lag)
    grid = theta_grid(score, step=step)
    result, probes, calls = searched(x, score, grid, gamma, 1.5)
    assert result == full_scan(x, score, grid, gamma, 1.5)
    assert calls <= math.ceil(math.log2(grid.size)) + 2
    if grid.size > 100:
        assert probes < 60


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([50, 300]),
       lag=st.integers(1, 3), gamma=st.floats(0.0, 50.0))
def test_full_scan_region_is_an_interval(seed, n, lag, gamma):
    # The rows a + theta b of an autocorrelation score have a one-signed
    # slope, so the EL statistic is quasi-convex in theta and its accepted
    # set on the whole grid is one run of grid points (Owen 1990).  This is
    # what lets the region search look for two ends only.
    x = simulate_linear(ma_polynomial_spec(0.5), n, np.random.default_rng(seed))
    score = acf_score(lag)
    grid = theta_grid(score)
    a, b = harness._affine_rows(x, score, 1.5)
    batch = solve_lagrange_batch(a + grid[:, None] * b)
    assert np.all(batch.converged | ~batch.hull_ok)
    stats = -2.0 * x_n(n, 1.5) ** 2 / n * batch.log_ratio
    assert np.all(np.diff(np.flatnonzero(stats < gamma)) == 1)


def test_region_search_takes_few_solver_rounds_on_the_study_design():
    # The square root of the statistic is close to linear on each side of
    # the plug-in point, so the secant search needs about 3 batch solves per
    # series at the study's thresholds, where bisection over 1999 points
    # needs 11.
    score, spec = acf_score(2), ma_polynomial_spec(0.5)
    grid = theta_grid(score)
    calls = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = simulate_linear(spec, 300, rng)
        gamma = analyze_series(x, score, 1.5, ExperimentConfig(), rng=rng,
                               process=spec).gamma
        calls.append(searched(x, score, grid, gamma, 1.5)[2])
    assert np.mean(calls) <= 4.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), gamma=st.floats(0.0, 50.0),
       lo=st.floats(-0.99, 0.98), width=st.floats(1e-3, 0.5),
       size=st.integers(1, 40), descending=st.booleans())
def test_region_search_on_narrow_and_short_grids(seed, gamma, lo, width, size,
                                                 descending):
    # Narrow grids often leave the plug-in point outside; grids of one or two
    # points are solved at both ends unless the end next to a plug-in point
    # outside the grid is rejected, which leaves the region empty, and grids
    # that do not increase are rejected before any point is solved.
    x = simulate_linear(ma_polynomial_spec(0.5), 120, np.random.default_rng(seed))
    score = acf_score(2)
    grid = np.linspace(lo, min(lo + width, 0.99), size)
    if descending and size > 1:
        with pytest.raises(ValueError, match="strictly increasing"):
            el_confidence_region(x, score, grid[::-1], gamma, 1.5)
        return
    result, probes, _ = searched(x, score, grid, gamma, 1.5)
    assert result == full_scan(x, score, grid, gamma, 1.5)
    if size < 3:
        assert probes == size or (result[0] is None and probes == 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
       n=st.sampled_from([120, 300]),
       gamma=st.sampled_from([0.0, 0.3, 2.0, 8.0, 1e6]) | st.floats(0.0, 50.0),
       step=st.sampled_from([0.001, 0.0137, 0.2]))
def test_region_search_of_the_var1_score_matches_full_scan(seed, b, n, gamma, step):
    # the slope of the var1 score is 2 M^T M, M the mask of the theta cell,
    # so the slope of the coupling rows is b_t = 2 I_11 >= 0 and the region
    # is an interval, found by the scalar search.
    x = simulate_vector_linear(vma_table_spec(b), n, np.random.default_rng(seed))
    score = coupling_var1_score()
    assert np.all(harness._affine_rows(x, score, 1.5)[1] >= 0.0)
    grid = theta_grid(score, step=step)
    result, _, calls = searched(x, score, grid, gamma, 1.5)
    assert result == full_scan(x, score, grid, gamma, 1.5)
    assert calls <= math.ceil(math.log2(grid.size)) + 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([50, 120, 300]),
       lags=st.lists(st.integers(1, 3), min_size=1, max_size=5),
       gammas=st.lists(st.sampled_from([0.0, 0.3, 2.0, 8.0, 1e6])
                       | st.floats(0.0, 50.0), min_size=5, max_size=5),
       step=st.sampled_from([0.001, 0.0137, 0.2]))
def test_stacked_regions_equal_one_series_at_a_time(seed, n, lags, gammas, step):
    # A stack of series shares one batch solve per search round; each probe
    # is still solved on its own row, and only once, so every scan is
    # bitwise the one its series gets alone, and an unconverged probe raises
    # for its own series.  Each series has its own index, so its own
    # statistic scale.
    rng = np.random.default_rng(seed)
    spec = ma_polynomial_spec(0.5)
    series = [(simulate_linear(spec, n, rng), acf_score(lag), gamma, alpha)
              for lag, gamma, alpha in zip(lags, gammas, rng.uniform(1.1, 1.9, 5))]
    grid = theta_grid(acf_score(1), step=step)
    a, b = map(np.stack, zip(*(harness._affine_rows(x, score, alpha)
                               for x, score, _, alpha in series)))
    gamma, alpha = [s[2] for s in series], [s[3] for s in series]

    def stack(solver):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "solve_lagrange_batch", solver)
            return harness._region_scans(a, b, grid, gamma, alpha, 0.9)

    calls = []
    together = stack(counting(calls))
    alone = [el_confidence_region(x, score, grid, g, value)
             for x, score, g, value in series]
    assert all(same(*pair) for pair in zip(together, alone))
    assert len(calls) <= math.ceil(math.log2(grid.size)) + 2
    assert sum(calls) == sum(scan.thetas.size for scan in together)

    # the first row of the first round is the first probe of series 0
    with pytest.raises(NumericalError, match="cannot answer series 0 of its stack: "
                                             "the dual solve of a probe did not converge"):
        stack(_flaky_solver())


def _oracle_stack(case, count=12):
    """Rows ``(a, b)``, grid, thresholds and statistic scales of one stack."""
    rng = np.random.default_rng(sum(map(ord, case)))
    n = 120 if case == "var1" else 300
    if case == "var1":
        score = coupling_var1_score()
        x = [simulate_vector_linear(vma_table_spec(0.3), n, rng) for _ in range(count)]
    else:
        score = acf_score(2)
        x = [simulate_linear(ma_polynomial_spec(0.5), n, rng) for _ in range(count)]
    # a Hill-alpha stack gives each series its own index, so its own scale
    alpha = rng.uniform(1.1, 1.9, count) if case == "hill" else np.full(count, 1.5)
    a, b = map(np.stack, zip(*(harness._affine_rows(s, score, v) for s, v in zip(x, alpha))))
    # the empty region, narrow and wide ones, and both grid ends reached
    gamma = np.resize([0.0, 0.3, 2.0, 4.6, 8.0, 30.0, 1e6], count)
    if case == "two-signed":
        b[[1, 5], 7] = -b[[1, 5], 7] - 1.0
    step = 0.01 if case == "step-0.01" else 0.001
    scale = np.array([-2.0 * x_n(n, v) ** 2 / n for v in alpha])
    return a, b, theta_grid(score, step=step), gamma, scale


def _recorded_search(module, a, b, grid, gamma, scale, solver=solve_lagrange_batch):
    """``module._search_regions`` with ``solver``, and the rows of every
    batch-solver call it made."""
    calls = []

    def recording(m):
        calls.append(m.tobytes())
        return solver(m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "solve_lagrange_batch", recording)
        return module._search_regions(a, b, grid, gamma, scale), calls


def _flaky_solver():
    """The batch solver, but the first row of its first call does not converge."""
    calls = []

    def solver(m):
        batch = solve_lagrange_batch(m)
        if not calls:
            batch = replace(batch, converged=np.r_[False, batch.converged[1:]],
                            hull_ok=np.r_[True, batch.hull_ok[1:]])
        calls.append(len(m))
        return batch
    return solver


@pytest.mark.parametrize("case", ["known", "hill", "var1", "step-0.01", "two-signed",
                                  "unconverged"])
def test_region_search_equals_the_dense_state_oracle(case):
    # The (S, 2) brackets request the probes of the (S, G) state they
    # replace, in its rounds, and give the same probed indices, bitwise
    # statistics and hull counts.  The series the oracle hands back (a
    # two-signed slope; an unconverged probe, the first row of the first
    # call being the first probe of series 0) make the search raise, naming
    # the first of them; without them the stack's other series get the
    # oracle's results bit for bit.
    a, b, grid, gamma, scale = _oracle_stack(case)
    failing, cause = {"two-signed": ([1, 5], "its slope is zero or takes both signs"),
                      "unconverged": ([0], "the dual solve of a probe did not converge"),
                      }.get(case, ([], None))
    solver = _flaky_solver() if case == "unconverged" else solve_lagrange_batch
    old, old_calls = _recorded_search(oracles, a, b, grid, gamma, scale, solver)
    assert [i for i, r in enumerate(old) if r is None] == failing
    if failing:
        solver = _flaky_solver() if case == "unconverged" else solve_lagrange_batch
        with pytest.raises(NumericalError, match=f"series {failing[0]} of its stack: {cause}"):
            _recorded_search(harness, a, b, grid, gamma, scale, solver)
    keep = np.setdiff1d(np.arange(len(a)), failing)
    new, new_calls = _recorded_search(harness, a[keep], b[keep], grid, gamma[keep],
                                      scale[keep])
    if case != "unconverged":  # there the oracle also solved series 0's first probes
        assert new_calls == old_calls
    for mine, theirs in zip(new, [old[i] for i in keep]):
        assert mine[0].tobytes() == theirs[0].tobytes()
        assert mine[1].tobytes() == theirs[1].tobytes()
        assert mine[2] == theirs[2]
    assert any(r[0].size and r[0][-1] == grid.size - 1 for r in new), \
        "no region reaches the grid end"


@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([50, 120, 300, 301]),
       lag=st.integers(1, 3), count=st.integers(1, 7), hill=st.booleans(),
       transfer=st.sampled_from(["smoothed", "smoothed-plugin", "exact"]),
       broken=st.sampled_from([None, None, 0.0, math.nan]))
def test_stacked_setup_equals_one_series_at_a_time(seed, n, lag, count, hill,
                                                    transfer, broken):
    # A coverage chunk analyzes all of its series in one array pass, region
    # searches included; every series must get bitwise what it gets alone,
    # from as many solved rows, and a series that fails (here: all zeros or
    # a nan) must raise its own error and no other's.
    rng = np.random.default_rng(seed)
    spec = ma_polynomial_spec(0.5)
    x = np.stack([simulate_linear(spec, n, rng) for _ in range(count)])
    if broken is not None:
        x[rng.integers(count)] = broken
    alpha = rng.uniform(1.0, 1.99, count) if hill else np.full(count, 1.5)
    quantiles = np.stack([rng.uniform(1.0, 20.0, count), rng.uniform(1.0, 5.0, count)], axis=1)
    score = acf_score(lag)
    shared = dict(score=score, process=None if transfer == "smoothed-plugin" else spec,
                  config=ExperimentConfig(grid_step=0.01, transfer_mode="exact"
                                          if transfer == "exact" else "smoothed"))
    rows_stacked, rows_alone = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "solve_lagrange_batch", counting(rows_stacked))
        stacked = harness._stack_results(x, alpha, quantiles, **shared)
        patch.setattr(harness, "solve_lagrange_batch", counting(rows_alone))
        alone = [harness._stack_results(x[i:i + 1], alpha[i:i + 1], quantiles[i:i + 1],
                                        **shared)[0]
                 for i in range(count)]
    assert sum(rows_stacked) == sum(rows_alone)
    for result, single in zip(stacked, alone):
        if isinstance(single, Exception):
            assert type(result) is type(single) and str(result) == str(single)
        else:
            assert same(result, single)
    # the stacked kernels against the per-series arithmetic they replace
    good = x[np.isfinite(x).all(axis=1) & x.any(axis=1)]
    if good.size:
        a, b = harness._affine_rows(good, score, alpha[:len(good)])
        periodograms = self_normalized_grid(good)
        centres = sample_acf(good, lag)
    for i, row in enumerate(good):
        one_a, one_b = harness._affine_rows(row, score, 1.5)
        assert (a[i].tobytes(), b[i].tobytes()) == (one_a.tobytes(), one_b.tobytes())
        xt = row / np.sqrt(row @ row)
        periodogram = (np.abs(np.fft.fft(xt)) ** 2)[np.arange(1, n + 1) % n]
        assert periodograms[i].tobytes() == periodogram.tobytes()
        assert centres[i] == float(row[:n - lag] @ row[lag:]) / float(row @ row)


@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), b=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
       n=st.sampled_from([120, 300]), count=st.integers(1, 5))
def test_stacked_var1_analysis_takes_one_law_call(seed, b, n, count):
    # A stack of vector series takes the scalar stack's path: one limit-law
    # call with one sample of Psi, and one region search, and every series
    # gets bitwise what it gets alone.
    rng = np.random.default_rng(seed)
    spec, score = vma_table_spec(b), coupling_var1_score()
    x = np.stack([simulate_vector_linear(spec, n, rng) for _ in range(count)])
    # about one series in 200 has no plug-in point in the domain (-1, 1)
    intercept, slope = harness._affine_rows(x, score, 1.5)
    assume(np.all(np.abs(intercept.sum(axis=1) / slope.sum(axis=1)) < 1.0))
    alpha = np.full(count, 1.5)
    # the EL method only: the quantile of the absolute ratio law is not read
    quantiles = np.stack([rng.uniform(1.0, 20.0, count), np.full(count, np.nan)], axis=1)
    shared = dict(score=score, process=spec,
                  config=ExperimentConfig(grid_step=0.01, methods=("el",)))
    laws, psi = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "prepare_limit",
                      lambda law: laws.append(law) or prepare_limit(law))
        patch.setattr(harness, "transfer_matrix",
                      lambda *args: psi.append(args) or transfer_matrix(*args))
        stacked = harness._analyze_stack(x, alpha, quantiles, **shared)
    assert len(laws) == len(psi) == 1
    for i, result in enumerate(stacked):
        alone = harness._analyze_stack(x[i:i + 1], alpha[i:i + 1], quantiles[i:i + 1],
                                       **shared)[0]
        assert same(result, alone)


@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@pytest.mark.parametrize("count", [7, 100])
def test_a_failing_series_splits_its_stack_in_halves(count):
    # A stack with one broken series retries each half that holds it, down
    # to the series alone, instead of analyzing every series alone; every
    # other series still gets bitwise what it gets alone.
    rng = np.random.default_rng(count)
    spec = ma_polynomial_spec(0.5)
    x = np.stack([simulate_linear(spec, 64, rng) for _ in range(count)])
    broken = count // 3
    x[broken] = 0.0
    alpha = rng.uniform(1.0, 1.99, count)
    quantiles = np.stack([rng.uniform(1.0, 20.0, count), rng.uniform(1.0, 5.0, count)], axis=1)
    shared = dict(score=acf_score(2), process=spec, config=ExperimentConfig(grid_step=0.01))
    passes, analyze = [], harness._analyze_stack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_analyze_stack",
                      lambda *args, **kwargs: passes.append(1) or analyze(*args, **kwargs))
        results = harness._stack_results(x, alpha, quantiles, **shared)
    assert len(passes) <= 2 * math.ceil(math.log2(count)) + 1
    for i, result in enumerate(results):
        args = (x[i:i + 1], alpha[i:i + 1], quantiles[i:i + 1])
        if i == broken:
            with pytest.raises(type(result)) as alone:
                analyze(*args, **shared)
            assert str(alone.value) == str(result)
        else:
            assert same(result, analyze(*args, **shared)[0])


# --------------------------------------------------------------------------
# pivotal and plug-in points

def test_pivotal_value_is_the_model_autocorrelation(spec_half):
    # For the autocorrelation score the defining integral equation is solved
    # exactly by rho(lag), which is returned in closed form.
    for lag in (1, 2, 3):
        assert pivotal_value(spec_half, acf_score(lag)) == theoretical_acf(spec_half, lag)


@pytest.mark.parametrize("specs", [
    [ExperimentConfig().build_process()], [ma_polynomial_spec(0.5)], [ma_polynomial_spec(0.9)],
    [LinearProcessSpec(np.r_[1.0, np.random.default_rng(seed).normal(size=size)],
                       StableParams(1.5)) for seed in range(20) for size in (2, 5, 7, 8, 33)]],
    ids=["design-1", "b=0.5", "b=0.9", "explicit-psi"])
def test_model_acf_is_theoretical_acf_to_the_bit(specs):
    # One correlation of psi with itself gives every lag the dot product of
    # theoretical_acf, and rho(0) its psi @ psi / psi @ psi; on many of the
    # explicit psi the correlation's own lag-0 sum differs in the last bit.
    for spec in specs:
        loop = np.array([theoretical_acf(spec, h) for h in range(spec.order + 1)])
        assert harness._model_acf(spec).tobytes() == loop.tobytes()


def test_whittle_point_closed_form(series_half):
    # Grid orthogonality makes the summed rows affine in theta with root
    # rho_hat(l) + rho_hat(n - l).
    n = series_half.size
    for lag in (1, 2):
        root = whittle_point(series_half, acf_score(lag), 1.5)
        expect = sample_acf(series_half, lag) + sample_acf(series_half, n - lag)
        assert abs(root - expect) < 1e-12


def test_scalar_pivotal_value_needs_an_autocorrelation_score(spec_half):
    # the scalar pivotal value is rho(lag), which a score without a lag
    # does not name
    score = acf_score(2)
    plain = ScoreFunction(name="plain", dim=1, domain=score.domain,
                          intercept=score.intercept, slope=score.slope)
    with pytest.raises(ValueError, match="autocorrelation score"):
        pivotal_value(spec_half, plain)


def test_pivotal_value_zero_is_not_negative_zero():
    # The zero coupling design's disparity has intercept 0, and -0 / B would
    # print as "-0" in table 5.
    value = pivotal_value(vma_table_spec(0.0), coupling_var1_score())
    assert _format_cell(value) == "0"


# --------------------------------------------------------------------------
# the competing interval

SAC_ONLY = ExperimentConfig(methods=("sac",), limit_reps=10_000)


def test_sac_interval_white_noise_composition(rng):
    # White noise has K = 1, so the half-width is q_0.9(|S_1 / S_0|) / x_n
    # with the ratio draws that analyze_series takes from its rng.
    x = rng.standard_cauchy(200)
    spec = LinearProcessSpec(psi=np.array([1.0]), noise=StableParams(1.5))
    ci = analyze_series(x, acf_score(2), 1.5, SAC_ONLY, process=spec,
                        rng=np.random.default_rng(3)).sac
    draws = sample_stable_ratio(1.5, 10_000, np.random.default_rng(3))
    center = sample_acf(x, 2)
    halfwidth = np.quantile(np.abs(draws), 0.9) / x_n(200, 1.5)
    assert ci.lower == pytest.approx(center - halfwidth, abs=1e-12)
    assert ci.upper == pytest.approx(center + halfwidth, abs=1e-12)


# the plug-in autocorrelations of a short series decay slowly, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([50, 300]),
       lag=st.integers(1, 3), plugin=st.booleans())
def test_sac_interval_is_centred_on_the_sample_acf(seed, n, lag, plugin):
    # The SAC interval is rho_hat(l) +/- q K / x_n (Davis & Resnick 1986),
    # whichever autocorrelations set the limit scale K.
    rng = np.random.default_rng(seed)
    spec = ma_polynomial_spec(0.5)
    x = simulate_linear(spec, n, rng)
    ci = analyze_series(x, acf_score(lag), 1.5, replace(SAC_ONLY, limit_reps=2000),
                        rng=rng, process=None if plugin else spec).sac
    assert abs(0.5 * (ci.lower + ci.upper) - sample_acf(x, lag)) < 1e-12


def test_sac_interval_rho_sources(series_half):
    # model autocorrelations with the process known, sample ones without it
    spec = ma_polynomial_spec(0.5)
    a, b = (analyze_series(series_half, acf_score(2), 1.5, SAC_ONLY, process=process,
                           rng=np.random.default_rng(4)).sac
            for process in (spec, None))
    assert a.length != b.length
    with pytest.raises(TypeError, match="rng"):
        analyze_series(series_half, acf_score(2), 1.5, SAC_ONLY, process=spec)


# --------------------------------------------------------------------------
# one-shot analysis

def test_analyze_series_consistency(series_half, rng):
    config = ExperimentConfig(grid_step=0.01, limit_reps=5000)
    result = analyze_series(series_half, acf_score(2), 1.5, config, rng=rng)
    assert result.el.interval is not None
    assert result.el.interval.lower <= result.theta_ref <= result.el.interval.upper
    # re-evaluating the statistic at the interval bounds stays below gamma
    for theta in (result.el.interval.lower, result.el.interval.upper):
        assert el_statistic(series_half, acf_score(2), theta, 1.5) < result.gamma
    assert result.sac.method == "sac"


# the plug-in autocorrelations of a short series decay slowly, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), power=st.integers(-30, 30),
       sign=st.sampled_from([1.0, -1.0]))
def test_analyze_series_invariant_under_exact_rescaling(seed, power, sign):
    # The periodogram and the sample autocorrelations are self-normalized,
    # and x -> +/- 2**k x is exact in floating point, so nothing may move.
    x = simulate_linear(ma_polynomial_spec(0.5), 300, np.random.default_rng(seed))

    def intervals(series):
        result = analyze_series(series, acf_score(2), 1.5,
                                ExperimentConfig(limit_reps=2000),
                                rng=np.random.default_rng(seed))
        return result.el.interval, result.sac, result.theta_ref, result.gamma

    assert intervals(sign * 2.0 ** power * x) == intervals(x)


# the plug-in autocorrelations of a short series decay slowly, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), factor=st.sampled_from([3.0, 0.1, 1e5, -7.0]))
def test_analyze_series_invariant_under_inexact_rescaling(seed, factor):
    # x -> c x for a c that is not a power of 2 moves the self-normalized
    # periodogram by rounding only: the plug-in point stays put to rounding,
    # and so does every accept/reject decision that is not a near tie with
    # the threshold.  Each probed point is decided as the other scan's
    # interval decides it (the region is an interval).
    x = simulate_linear(ma_polynomial_spec(0.5), 300, np.random.default_rng(seed))
    base, scaled = (analyze_series(series, acf_score(2), 1.5,
                                   ExperimentConfig(limit_reps=2000),
                                   rng=np.random.default_rng(seed))
                    for series in (x, factor * x))
    assert abs(scaled.theta_ref - base.theta_ref) <= 1e-12 * abs(base.theta_ref)
    for one, other in ((base, scaled), (scaled, base)):
        scan, interval = one.el, other.el.interval
        clear = np.abs(scan.stats - scan.gamma) > 1e-8 * scan.gamma
        inside = (np.zeros(scan.thetas.shape, dtype=bool) if interval is None else
                  (interval.lower <= scan.thetas) & (scan.thetas <= interval.upper))
        assert np.array_equal(scan.accepted[clear], inside[clear])


def test_analyze_series_argument_validation(series_half, rng):
    with pytest.raises(ValueError, match="process spec"):
        analyze_series(series_half, acf_score(2), 1.5,
                       ExperimentConfig(transfer_mode="exact"), rng=rng)
    with pytest.raises(ValueError, match="autocorrelation score"):
        analyze_series(series_half, replace(acf_score(2), lag=None), 1.5,
                       ExperimentConfig(methods=("sac",)), rng=rng)
    with pytest.raises(TypeError, match="rng"):
        analyze_series(series_half, acf_score(2), 1.5,
                       ExperimentConfig(methods=("el",)))


def test_analyze_series_rejects_too_short_series(rng):
    # three rows used to give a lag-2 SAC interval reaching past 1
    x = np.random.default_rng(3).standard_normal(8)
    config = ExperimentConfig(methods=("sac",), limit_reps=1000)
    with pytest.raises(ValueError, match="at least 8, got 7"):
        analyze_series(x[:7], acf_score(2), 1.5, config, rng=rng)
    with pytest.raises(ValueError, match="must exceed the score lag 8"):
        analyze_series(x, acf_score(8), 1.5, config, rng=rng)
    assert analyze_series(x, acf_score(7), 1.5, config, rng=rng).sac is not None


def test_analyze_series_computes_the_sample_acf_once(series_half, rng, monkeypatch):
    # the smoothed transfer and the SAC half-width share one FFT of the series
    from elstable import spectral

    calls = []
    for module in (spectral, harness):  # wherever the name may be bound
        monkeypatch.setattr(module, "acf_sequence",
                            lambda x: calls.append(1) or acf_sequence(x), raising=False)
    config = ExperimentConfig(grid_step=0.01, limit_reps=2000)
    result = analyze_series(series_half, acf_score(2), 1.5, config, rng=rng)
    assert len(calls) == 1 and result.sac is not None


def test_analyze_series_runs_el_only_on_matrix_scores():
    # The SAC interval is defined for scalar series, so a matrix score drops
    # it from the configured methods instead of failing.
    spec = vma_table_spec(0.3)
    x = simulate_vector_linear(spec, 120, np.random.default_rng(6))
    config = ExperimentConfig(grid_step=0.05)
    result = analyze_series(x, coupling_var1_score(), 1.5, config, process=spec,
                            rng=np.random.default_rng(7))
    assert result.sac is None
    assert -1.0 < result.el.interval.lower <= result.el.interval.upper < 1.0


# --------------------------------------------------------------------------
# experiment configuration

def test_experiment_config_roundtrip():
    cfg = ExperimentConfig(process=PROC_HALF, replicates=150, seed=9,
                           scale_convention=(2.0, 3.0))
    back = ExperimentConfig.from_dict(json.loads(cfg.to_json()))
    assert back == cfg
    assert back.scale_convention == (2.0, 3.0)
    with pytest.raises(FrozenInstanceError):
        back.level = 0.5


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(process=PROC_HALF, level=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(process=PROC_HALF, n=4)
    with pytest.raises(ValueError):
        ExperimentConfig(process=PROC_HALF, replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(process=PROC_HALF, methods=("el", "bootstrap"))
    with pytest.raises(ValueError):
        ExperimentConfig(process=PROC_HALF, transfer_mode="kernel")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"process": PROC_HALF, "budget": 3})
    # settings of alternatives the pipeline no longer has
    for name, value in (("smoothing_spacing", "fourier"), ("smoothing_bandwidth", 4),
                        ("theta_ref_mode", "plugin"), ("dependence", "independent")):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"process": PROC_HALF, name: value})
    for workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ExperimentConfig(process=PROC_HALF, workers=workers)


@pytest.mark.parametrize("fields, message", [
    ({"n": "abc"}, "n must be an integer, got 'abc'"),
    ({"n": 300.5}, "n must be an integer, got 300.5"),
    ({"replicates": "5"}, "replicates must be an integer, got '5'"),
    ({"methods": "el"}, "methods must be a list of method names, got 'el'"),
    ({"truncation": 0}, "truncation must be at least 1, got 0"),
])
def test_experiment_config_rejects_wrong_typed_values(fields, message):
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_dict(fields)
    assert str(info.value) == message


# --------------------------------------------------------------------------
# coverage experiments

SMALL = dict(process=PROC_HALF, n=64, replicates=100, grid_step=0.01,
             limit_reps=2000, truncation=60)


def test_coverage_summary_arithmetic():
    records = [
        {"status": "ok", "el_lower": 0.0, "el_upper": 0.2, "el_length": 0.2,
         "el_covered": 1, "el_empty": 0, "sac_lower": 0.0, "sac_upper": 0.1,
         "sac_length": 0.1, "sac_covered": 0},
        {"status": "ok", "el_lower": float("nan"), "el_upper": float("nan"),
         "el_length": float("nan"), "el_covered": 0, "el_empty": 1,
         "sac_lower": -0.1, "sac_upper": 0.1, "sac_length": 0.2, "sac_covered": 1},
        {"status": "error: ValueError: boom", "el_lower": float("nan"),
         "el_upper": float("nan"), "el_length": float("nan"), "el_covered": 0,
         "el_empty": 0, "sac_lower": float("nan"), "sac_upper": float("nan"),
         "sac_length": float("nan"), "sac_covered": 0},
    ]
    summary = coverage_summary(records, 0.9)
    assert summary["replicates"] == 3 and summary["failures"] == 1
    assert summary["el"]["used"] == 2 and summary["el"]["misses"] == 1
    assert summary["el"]["miss_rate"] == pytest.approx(0.5)
    assert summary["el"]["coverage_error"] == pytest.approx(0.4)
    assert summary["el"]["empty_regions"] == 1
    assert summary["el"]["mean_length"] == pytest.approx(0.2)
    assert summary["sac"]["misses"] == 1
    # sqrt(p (1 - p) / used), and the sample deviation over sqrt(count)
    assert summary["el"]["miss_rate_se"] == pytest.approx(math.sqrt(0.25 / 2))
    assert math.isnan(summary["el"]["mean_length_se"])  # one length
    assert summary["sac"]["miss_rate_se"] == pytest.approx(math.sqrt(0.25 / 2))
    assert summary["sac"]["mean_length"] == pytest.approx(0.15)
    assert summary["sac"]["mean_length_se"] == pytest.approx(0.05)


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_coverage_records_are_worker_count_invariant(tmp_path):
    # the small design and the default n = 300 design on the 0.001 grid
    for name, design in (("small", SMALL), ("default", dict(process=PROC_HALF,
                                                              replicates=100))):
        texts = []
        for workers in (1, 2):
            result = coverage_experiment(ExperimentConfig(workers=workers, seed=31,
                                                          **design))
            path = tmp_path / f"{name}-w{workers}.csv"
            result.write_csv(path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]


def _record_lines(records):
    return render_csv(harness._COVERAGE_FIELDS, records, {}).splitlines()


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("stage", ["simulation", "search"])
def test_a_failing_replicate_leaves_the_rest_of_its_chunk_alone(workers, stage):
    # Replicate 57 raises either before its first probe or in the region
    # search of every stack that holds it, while the rest of its chunk gets
    # the records it gets without the failure.
    cfg = ExperimentConfig(workers=workers, seed=23, **SMALL)
    clean = coverage_experiment(cfg).records
    bad = 57
    with pytest.MonkeyPatch.context() as patch:
        if stage == "simulation":
            def failing(spec, n, rng):
                if rng.bit_generator.seed_seq.entropy == (cfg.seed, 1 + bad):
                    raise ValueError("boom")
                return simulate_linear(spec, n, rng)

            patch.setattr(harness, "simulate_linear", failing)
        else:
            search, root = harness._search_regions, clean[bad]["theta_ref"]

            def failing(a, b, *args):
                if np.any(-a.sum(axis=1) / b.sum(axis=1) == root):
                    raise RuntimeError("boom")
                return search(a, b, *args)

            patch.setattr(harness, "_search_regions", failing)
        # the kept pool was forked without the patch
        harness._release_pool()
        records = coverage_experiment(cfg).records
    assert records[bad]["status"].startswith("error: ")
    assert records[bad]["status"].endswith(": boom")
    assert (_record_lines(records[:bad] + records[bad + 1:])
            == _record_lines(clean[:bad] + clean[bad + 1:]))


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_a_series_with_no_estimated_index_is_an_error_record():
    # Replicate 12 draws a series whose quartiles coincide: its index cannot
    # be estimated, and only its own record says so.
    cfg = ExperimentConfig(workers=1, seed=23, **dict(SMALL, alpha_mode="estimated"))
    clean = coverage_experiment(cfg).records
    bad = 12

    def flat(spec, n, rng):
        x = simulate_linear(spec, n, rng)
        if rng.bit_generator.seed_seq.entropy == (cfg.seed, 1 + bad):
            x[: n - 3] = 0.0
        return x

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "simulate_linear", flat)
        records = coverage_experiment(cfg).records
    assert records[bad]["status"] == ("error: DegenerateSeriesError: "
                                      "series has a zero interquartile range")
    assert (_record_lines(records[:bad] + records[bad + 1:])
            == _record_lines(clean[:bad] + clean[bad + 1:]))


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_coverage_records_do_not_depend_on_uneven_chunks():
    # 101 replicates split into chunks of 100 + 1, 51 + 50 and 34 + 34 + 33.
    design = dict(SMALL, replicates=101)
    texts = {tuple(_record_lines(coverage_experiment(
        ExperimentConfig(workers=workers, seed=29, **design)).records))
        for workers in (1, 2, 3)}
    assert len(texts) == 1


class _PoolSizes(list):
    """A stand-in for ``ProcessPoolExecutor`` that records the pool size it
    is asked for and the chunks submitted to it, and runs each chunk in this
    process when it is submitted."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def __call__(self, max_workers):
        self.append(max_workers)
        return self

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass

    def submit(self, fn, chunk):
        self.chunks.append(chunk)
        future = concurrent.futures.Future()
        future.set_result(fn(chunk))
        return future


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@pytest.mark.parametrize("workers, cpus, started", [
    (1000, 4, [3]),     # 100 one-replicate chunks, capped by the CPUs
    (1000, 500, [99]),  # capped by the chunks
    (2, 8, [1]),
    (3, 1, []),         # one CPU: the chunks run serially
])
def test_worker_pool_is_capped_by_chunks_and_cpus(workers, cpus, started):
    # The requested worker count still sets the chunking; only the number of
    # processes is capped, and the caller is one of them: the pool gets one
    # process fewer and every chunk whose index is not a multiple of the
    # process count.  The fake pool starts no process, so the extreme worker
    # counts are safe to try.
    serial = _record_lines(coverage_experiment(
        ExperimentConfig(workers=1, seed=37, **SMALL)).records)
    sizes = _PoolSizes()
    harness._release_pool()  # a pool kept from an earlier call is not the fake
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concurrent.futures, "ProcessPoolExecutor", sizes)
        patch.setattr(harness.os, "cpu_count", lambda: cpus)
        records = coverage_experiment(
            ExperimentConfig(workers=workers, seed=37, **SMALL)).records
    assert sizes == started
    size = -(-SMALL["replicates"] // workers)
    chunks = [range(start, min(start + size, SMALL["replicates"]))
              for start in range(0, SMALL["replicates"], size)]
    processes = started[0] + 1 if started else 1
    assert sizes.chunks == [chunk for i, chunk in enumerate(chunks) if i % processes]
    assert _record_lines(records) == serial


# The CI smoke's var1 design: a matrix score on bivariate series.
VAR1 = dict(process={"kind": "vma", "alpha": 1.5, "coeffs": {"kind": "table", "b": 0.3}},
            score={"name": "var1", "template": [[0.5, "theta"], [0.4, 0.2]]},
            methods=("el",), n=64, replicates=100, limit_reps=1000, grid_step=0.01)


def _kept_worker():
    """The kept pool and the pid of its one worker."""
    pool = harness._kept_pool[1]
    return pool, pool.submit(os.getpid).result(timeout=30)


def _serial_lines(design, seed):
    return _record_lines(coverage_experiment(
        ExperimentConfig(workers=1, seed=seed, **design)).records)


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_a_kept_pool_serves_every_call_without_state_of_its_own(monkeypatch):
    # Two calls on two processes share one pool and its one worker, and so
    # do four designs after them; every call gets its 1-worker records.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = _serial_lines(SMALL, 41)
    calls = []
    for _ in range(2):
        records = coverage_experiment(ExperimentConfig(workers=2, seed=41, **SMALL)).records
        calls.append((_record_lines(records), _kept_worker()))
    (first, kept), (second, again) = calls
    assert first == second == serial
    assert again == kept
    for design in (SMALL, dict(SMALL, transfer_mode="exact"), VAR1,
                   dict(SMALL, alpha_mode="estimated")):
        records = coverage_experiment(ExperimentConfig(workers=2, seed=43, **design)).records
        assert _record_lines(records) == _serial_lines(design, 43)
        assert _kept_worker() == kept


def _gone(pid, timeout=30.0):
    """Whether process ``pid`` was reaped within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.01)
    return False


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_a_killed_worker_is_replaced_by_the_next_call(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = _serial_lines(SMALL, 47)
    cfg = ExperimentConfig(workers=2, seed=47, **SMALL)
    coverage_experiment(cfg)
    pool, pid = _kept_worker()
    os.kill(pid, signal.SIGKILL)
    # the pool reaps the worker once it has marked itself broken
    assert _gone(pid)
    assert _record_lines(coverage_experiment(cfg).records) == serial
    fresh, fresh_pid = _kept_worker()
    assert fresh is not pool and fresh_pid != pid


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_a_worker_killed_during_a_call_is_replaced_once(monkeypatch):
    # The kept worker is stopped, so the call's submission succeeds and its
    # chunk waits; killed while the caller runs or waits, it breaks the pool
    # under the call, which reruns the pool's chunks on a fresh pool.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = _serial_lines(SMALL, 71)
    cfg = ExperimentConfig(workers=2, seed=71, **SMALL)
    coverage_experiment(cfg)
    pool, pid = _kept_worker()
    os.kill(pid, signal.SIGSTOP)
    killer = threading.Timer(0.5, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        lines = _record_lines(coverage_experiment(cfg).records)
    finally:
        killer.join()
    assert lines == serial
    assert _gone(pid)
    fresh, fresh_pid = _kept_worker()
    assert fresh is not pool and fresh_pid != pid


def _warning_filters():
    return warnings.filters


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_a_changed_warning_filter_or_error_setting_forks_a_new_pool(monkeypatch):
    # A chunk's failures depend on the warning filters and numpy's error
    # settings its process has, so a worker must have the caller's: a call
    # made under other ones than the kept workers inherited forks anew.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = _serial_lines(SMALL, 73)
    cfg = ExperimentConfig(workers=2, seed=73, **SMALL)

    def call():
        assert _record_lines(coverage_experiment(cfg).records) == serial
        pool, pid = _kept_worker()
        assert pool.submit(_warning_filters).result(timeout=30) == warnings.filters
        assert pool.submit(np.geterr).result(timeout=30) == np.geterr()
        return pid

    pids = [call(), call()]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pids.append(call())
    with np.errstate(all="ignore"):
        pids.append(call())
    pids.append(call())
    assert pids[0] == pids[1]
    assert len(set(pids)) == 4


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_an_interrupted_call_releases_the_kept_pool(monkeypatch):
    # An interrupt in the caller's own chunk shuts the pool down, so the
    # next call forks afresh instead of queueing behind the dead call.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = _serial_lines(SMALL, 67)
    cfg = ExperimentConfig(workers=2, seed=67, **SMALL)
    coverage_experiment(cfg)
    pool, pid = _kept_worker()

    def interrupted(spec, n, rng):
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        # the kept worker was forked without the patch: only the caller stops
        patch.setattr(harness, "simulate_linear", interrupted)
        with pytest.raises(KeyboardInterrupt):
            coverage_experiment(cfg)
    assert harness._kept_pool is None
    assert _gone(pid)
    assert _record_lines(coverage_experiment(cfg).records) == serial
    assert _kept_worker()[1] != pid


def _child_pids() -> set:
    pids = set()
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.update((task / "children").read_text().split())
        except OSError:
            continue
    return pids


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task").is_dir(),
                    reason="counts child processes through /proc")
def test_a_new_worker_count_replaces_the_pool(monkeypatch):
    # On 4 CPUs, 3 workers keep a pool of 2 and 2 workers a pool of 1; each
    # change shuts the old pool down before the new one forks.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    serial = _serial_lines(SMALL, 53)
    peak, stop = [0], threading.Event()

    def watch():
        while not stop.is_set():
            peak[0] = max(peak[0], len(_child_pids()))
            stop.wait(0.002)

    watcher = threading.Thread(target=watch, daemon=True)
    pools = []
    watcher.start()
    try:
        for workers in (3, 2, 3):
            records = coverage_experiment(
                ExperimentConfig(workers=workers, seed=53, **SMALL)).records
            assert _record_lines(records) == serial
            pools.append(harness._kept_pool)
    finally:
        stop.set()
        watcher.join(timeout=10)
    assert not watcher.is_alive()
    assert [key[0] for key, _, _ in pools] == [2, 1, 2]
    assert len({id(pool) for _, pool, _ in pools}) == 3
    assert 1 <= peak[0] <= 2


def _pooled_lines_to(queue, seed):
    queue.put(_record_lines(coverage_experiment(
        ExperimentConfig(workers=2, seed=seed, **SMALL)).records))


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_a_forked_child_makes_its_own_pool_and_exits(monkeypatch):
    # The child inherits the parent's kept pool, whose workers and threads
    # it cannot use, and as a multiprocessing child it joins its own
    # children before exiting: its pooled call must neither hang on the
    # parent's pool nor leave its own behind.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    serial = _serial_lines(SMALL, 59)
    coverage_experiment(ExperimentConfig(workers=2, seed=59, **SMALL))
    kept = _kept_worker()
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    child = context.Process(target=_pooled_lines_to, args=(queue, 59))
    child.start()
    try:
        lines = queue.get(timeout=60)
        child.join(timeout=30)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)
    assert lines == serial
    assert _kept_worker() == kept


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_threads_take_turns_with_the_kept_pool(monkeypatch):
    # Three threads on a 4-CPU host ask for pools of 1 and 2 workers at the
    # same time; no call may cancel or replace the pool another is using.
    # Six chunks leave each pool more than it runs at once, so a pool shut
    # down under a call would cancel one of them.
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    design = dict(SMALL, replicates=600)
    serial = _serial_lines(design, 61)
    results, errors = [], []

    def call(workers):
        try:
            for _ in range(3):
                results.append(_record_lines(coverage_experiment(
                    ExperimentConfig(workers=workers, seed=61, **design)).records))
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(workers,)) for workers in (2, 3, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [serial] * 9


def test_coverage_rejects_tiny_runs():
    with pytest.raises(ValueError):
        coverage_experiment(ExperimentConfig(process=PROC_HALF, replicates=99))


def test_white_noise_sac_coverage(rng):
    # Pure-noise design: the lag-2 autocorrelation is zero and the competing
    # interval should cover it at roughly the nominal rate.
    cfg = ExperimentConfig(process={"kind": "ma", "alpha": 1.5, "psi": [1.0]},
                           n=100, replicates=200, seed=13, methods=("sac",),
                           grid_step=0.01, limit_reps=5000, truncation=60,
                           workers=2)
    result = coverage_experiment(cfg)
    assert result.summary["failures"] == 0
    assert result.summary["sac"]["miss_rate"] <= 0.15


# --------------------------------------------------------------------------
# tables

def test_table_validation_and_shape():
    with pytest.raises(ValueError):
        run_table(4)
    with pytest.raises(ValueError, match="unknown config fields"):
        run_table(3, budget=3)
    result = run_table(3, seed=1, grid_step=0.01, limit_reps=2000, truncation=60)
    assert [row["case"] for row in result.rows] == ["case-6", "case-7"]
    assert result.param_name == "n" and not result.multivariate
    assert all(row["theta0"] == pytest.approx(0.11683, abs=1e-4)
               for row in result.rows)
    assert set(result.fieldnames) >= {"case", "n", "el_length", "sac_length"}


# --------------------------------------------------------------------------
# CSV plumbing

def test_render_csv_format_and_parsing(tmp_path):
    rows = [{"a": 1, "b": 0.5, "c": float("nan")},
            {"a": 2, "b": float("inf"), "c": -1.25}]
    text = render_csv(["a", "b", "c"], rows, {"kind": "demo"})
    lines = text.splitlines()
    assert lines[0] == f"# {SCHEMA_VERSION}"
    assert lines[1] == "# kind=demo"
    assert lines[2] == "a,b,c"
    assert lines[3] == "1,0.5,nan"
    assert lines[4] == "2,inf,-1.25"

    path = tmp_path / "demo.csv"
    write_csv(path, ["a", "b", "c"], rows, {"kind": "demo"})
    records = read_records_csv(path)
    assert records[0]["a"] == 1 and records[0]["b"] == 0.5
    assert math.isnan(records[0]["c"])
    assert records[1]["b"] == float("inf")


def test_write_csv_stdout(capsys):
    write_csv("-", ["a"], [{"a": 3}], {})
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "3"


def test_ingest_csv_variants(tmp_path):
    path = tmp_path / "series.csv"
    path.write_text("x\n1.0\n2.5\n-3.0\n")
    np.testing.assert_allclose(ingest_csv(path), [1.0, 2.5, -3.0])

    path.write_text("# comment\n1.0 2.0\n3.0 4.0\n")
    data = ingest_csv(path)
    assert data.shape == (2, 2)

    path.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n")
    assert ingest_csv(path, dim=2).shape == (2, 2)

    # numpy opens this name as a gzip archive; the line parser reads it
    path = tmp_path / "series.gz"
    path.write_text("1.0\n2.5\n")
    assert ingest_csv(path).tolist() == [1.0, 2.5]


def test_ingest_csv_rejections(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x\n1.0\nNaN\n")
    with pytest.raises(ValueError, match="row 3"):
        ingest_csv(path)
    path.write_text("x\n1.0\n2.0,3.0\n")
    with pytest.raises(ValueError, match="inconsistent"):
        ingest_csv(path)
    path.write_text("x\n1.0\noops\n")
    with pytest.raises(ValueError, match="malformed"):
        ingest_csv(path)
    path.write_text("")
    with pytest.raises(ValueError, match="no data"):
        ingest_csv(path)
    path.write_text("x\n1.0\n")
    with pytest.raises(ValueError, match="expected 2"):
        ingest_csv(path, dim=2)


def test_ingest_csv_first_row_with_a_number_is_data(tmp_path):
    # a first row is a header only when none of its fields is a number; a
    # row such as "1 # note" used to be dropped as a header without a word
    path = tmp_path / "series.csv"
    for first in ("1 # note", "1.0,abc"):
        path.write_text(first + "\n2\n3\n")
        with pytest.raises(ValueError, match="malformed row 1: "):
            ingest_csv(path)
    for header, row, expected in (("x", "1.5", [1.5]), ("x1,x2", "1.5,2", [[1.5, 2.0]]),
                                  ("a b", "1.5 2", [[1.5, 2.0]])):
        path.write_text(f"# series\n\n{header}\n{row}\n")
        assert ingest_csv(path).tolist() == expected


def test_ingest_csv_refuses_a_number_next_to_an_ascii_separator(tmp_path):
    # str.strip takes FS, GS, RS and US for whitespace, and numpy's reader
    # reads a number next to one, but float refuses it: such a file goes to
    # the line parser, which names the row
    path = tmp_path / "series.csv"
    for separator in "\x1c\x1d\x1e\x1f":
        path.write_text(f"1{separator},1\n2,2\n")
        with pytest.raises(ValueError, match="malformed row 1: "):
            ingest_csv(path)


def _read_lines(path):
    """The line parser's reading of ``path``: ingest_csv's reference."""
    try:
        with open(path) as fh:
            data = harness._parse_rows(fh, path)
    except ValueError as exc:
        return str(exc)
    return data[:, 0] if data.shape[1] == 1 else data


_NUMBER_FORMS = (repr, lambda v: format(v, ".17g"), lambda v: format(v, "e"),
                 lambda v: f"  {v!r} ", lambda v: f"{v:>28.17g}")
# "\x1c"-"\x1f" are whitespace to str.strip but not to float
_ODD_FIELDS = ("nan", "-inf", "Infinity", "1_0", "abc", "", "#", "1#2", "x",
               "1\x1c", "\x1d2.5", "\x1e", "-1\x1f")


@st.composite
def _table_texts(draw):
    """Tables as users write them, with a few of every kind of defect."""
    width = draw(st.integers(1, 3))
    sep = draw(st.sampled_from([",", " ", "\t", ", ", " ,", "  \t"]))
    rare = st.integers(0, 79).map(lambda k: k == 0)

    def field():
        if draw(rare):
            return draw(st.sampled_from(_ODD_FIELDS))
        value = draw(st.floats(allow_nan=False, allow_infinity=False))
        return draw(st.sampled_from(_NUMBER_FORMS))(value)

    def row(count):
        return sep.join(field() for _ in range(count))

    lines = []
    if draw(st.booleans()):
        lines.append(draw(st.sampled_from(
            ["x", "x1,x2", "a b", "\tx", "x,1", "1.0,abc", "1 # note"])))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 29))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == 1:
            lines.append(draw(st.sampled_from(["# comment", "  # 1,2", "#"])))
        elif kind == 2:
            lines.append(row(width) + draw(st.sampled_from([" # note", "#1"])))
        elif kind == 3:
            lines.append(row(width) + ",")
        elif kind == 4:
            lines.append(row(draw(st.integers(1, 4))))
        else:
            lines.append(row(width))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


# a numpy warning, such as loadtxt's "input contained no data", fails it
@pytest.mark.filterwarnings("error")
@settings(max_examples=200, deadline=None)
@given(text=_table_texts())
def test_ingest_csv_matches_the_line_parser(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "ingest-property.csv"
    path.write_bytes(text.encode())
    expected = _read_lines(path)
    try:
        got = ingest_csv(path)
    except ValueError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_ingest_csv_reads_simulate_output_and_columns_bitwise(tmp_path, monkeypatch):
    from elstable.cli import main

    series = tmp_path / "series.csv"
    assert main(["simulate", "--n", "10000", "--output", str(series)]) == 0
    columns = tmp_path / "columns.txt"
    x = np.random.default_rng(11).standard_cauchy((500, 2))
    columns.write_text("".join(f"{a!r}\t {b:.17g}\n" for a, b in x.tolist()))
    crlf, headed, commas = (tmp_path / f"{name}.csv" for name in ("crlf", "headed", "commas"))
    crlf.write_bytes("".join(f"{a!r}\r\n" for a in x[:, 0].tolist()).encode())
    headed.write_text("\n \n\t\nx\n" + "".join(f"{a!r}\n" for a in x[:, 1].tolist()))
    commas.write_text("".join(f"{a!r}, {b!r}\n" for a, b in x.tolist()))
    paths = (series, columns, crlf, headed, commas)
    expected = [_read_lines(path) for path in paths]
    # numpy's reader alone must give the line parser's bits
    monkeypatch.setattr(harness, "_parse_rows", None)
    for path, want in zip(paths, expected):
        got = ingest_csv(path)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert expected[0].shape == (10_000,)
    for want in expected[1], expected[4]:
        assert want.tobytes() == x.tobytes()
    assert expected[2].tobytes() == x[:, 0].tobytes()
    assert expected[3].tobytes() == x[:, 1].tobytes()


# the deliberately short limit series of the small design warns, by design
@pytest.mark.filterwarnings("ignore::elstable.errors.TruncationWarning")
def test_coverage_csv_roundtrip_preserves_summary(tmp_path):
    cfg = ExperimentConfig(workers=2, seed=17, **SMALL)
    result = coverage_experiment(cfg)
    path = tmp_path / "records.csv"
    result.write_csv(path)
    records = read_records_csv(path)
    assert len(records) == cfg.replicates
    again = coverage_summary(records, cfg.level)
    assert again["el"]["misses"] == result.summary["el"]["misses"]
    assert again["sac"]["misses"] == result.summary["sac"]["misses"]
    assert again["el"]["mean_length"] == pytest.approx(
        result.summary["el"]["mean_length"], rel=1e-9)
