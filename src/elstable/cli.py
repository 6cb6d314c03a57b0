"""Command-line interface: simulation, intervals, thresholds, and tables.

Every subcommand reads an optional JSON experiment config (the keys of
``ExperimentConfig``) and applies flag overrides on top; outputs are CSV
files with the schema-version header, written to ``--output`` (``-`` is
stdout).  Exit codes: 0 on success, 2 for validation problems (bad flags,
malformed input, out-of-domain settings), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from .harness import (_ALPHA_CLIP, ExperimentConfig, analyze_series,
                      coverage_experiment, ingest_csv, pivotal_value, run_table,
                      write_csv)
from .limitlaw import LimitLawConfig, mc_quantile
from .processes import (normalized_transfer, simulate_linear,
                        simulate_vector_linear, transfer_matrix)
from .scores import check_alpha
from .spectral import hill_curve, hill_estimator


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON experiment config; flags override its fields")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--output", "-o", default="-", metavar="FILE",
                        help="output CSV path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elstable",
        description="Empirical-likelihood confidence regions for "
                    "autocorrelations of heavy-tailed linear processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw one series and emit it as CSV")
    _add_common(p)
    p.add_argument("--n", type=int, help="series length")

    p = sub.add_parser("ci", help="EL and SAC intervals for a series file")
    _add_common(p)
    p.add_argument("--input", "-i", required=True, metavar="FILE",
                   help="series CSV (one column, or d columns for vector data)")
    p.add_argument("--level", type=float, help="confidence level in (0, 1)")
    p.add_argument("--alpha", type=float,
                   help="known stability index in [1, 2)")
    p.add_argument("--hill", action="store_true",
                   help="estimate the stability index from the data")
    p.add_argument("--hill-k", type=int, metavar="K",
                   help="tail order statistics for --hill (default n^0.6)")
    p.add_argument("--lag", type=int,
                   help="autocorrelation lag of the default score")
    p.add_argument("--methods", metavar="LIST",
                   help="comma list among el,sac (default el,sac)")
    p.add_argument("--grid-step", type=float, help="scan resolution")
    p.add_argument("--limit-reps", type=int,
                   help="Monte-Carlo draws for the threshold")

    p = sub.add_parser("limit", help="tabulate threshold quantiles gamma_p")
    _add_common(p)
    p.add_argument("--levels", default="0.9", metavar="LIST",
                   help="comma list of confidence levels (default 0.9)")
    p.add_argument("--theta", type=float,
                   help="evaluation point (default: the process pivotal value)")
    p.add_argument("--limit-reps", type=int,
                   help="Monte-Carlo draws per quantile")

    p = sub.add_parser("table", help="reproduce a built-in study table")
    _add_common(p)
    p.add_argument("--id", type=int, required=True, choices=(1, 2, 3, 5),
                   dest="table_id", help="table number")
    p.add_argument("--level", type=float, help="confidence level")
    p.add_argument("--grid-step", type=float, help="scan resolution")
    p.add_argument("--limit-reps", type=int,
                   help="Monte-Carlo draws for thresholds")

    p = sub.add_parser("coverage", help="replicated coverage-error experiment")
    _add_common(p)
    p.add_argument("--replicates", type=int, help="number of replicates")
    p.add_argument("--n", type=int, help="series length")
    p.add_argument("--workers", type=int, help="parallel worker processes")

    p = sub.add_parser("hill-plot", help="tail-index estimates over a k range")
    _add_common(p)
    p.add_argument("--input", "-i", required=True, metavar="FILE",
                   help="series CSV (one column)")
    p.add_argument("--kmin", type=int, default=5, help="smallest k (default 5)")
    p.add_argument("--kmax", type=int,
                   help="largest k (default: half the series length)")
    p.add_argument("--points", type=int, default=50,
                   help="number of k values (default 50)")

    return parser


def _load_config(args, overrides: dict | None = None) -> tuple[ExperimentConfig, bool]:
    """Experiment config from the JSON file plus flag overrides.

    Returns the config and whether the file supplied a process spec (some
    commands fall back to the built-in study design when it did not).
    """
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
    process_given = "process" in raw
    if not process_given:
        raw["process"] = {"kind": "ma", "alpha": 1.5,
                          "psi": {"kind": "exp_over_j", "b": 0.5}}
    if args.seed is not None:
        raw["seed"] = args.seed
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    return ExperimentConfig.from_dict(raw), process_given


def _cmd_simulate(args) -> int:
    config, _ = _load_config(args, {"n": args.n})
    spec = config.build_process()
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    if getattr(spec, "dim", 1) > 1:
        x = simulate_vector_linear(spec, config.n, rng)
        names = [f"x{j + 1}" for j in range(x.shape[1])]
    else:
        x = simulate_linear(spec, config.n, rng)[:, None]
        names = ["x"]
    rows = [{name: format(value, ".17g") for name, value in zip(names, row)}
            for row in x]
    write_csv(args.output, names, rows,
              {"kind": "series", "seed": config.seed, "n": config.n})
    return 0


def _resolve_alpha(args, x: np.ndarray) -> float:
    if args.alpha is not None and args.hill:
        raise ValueError("supply either --alpha or --hill, not both")
    if args.alpha is not None:
        return check_alpha(args.alpha)
    if args.hill:
        if x.ndim != 1:
            raise ValueError("--hill needs a scalar series")
        return float(np.clip(hill_estimator(x, args.hill_k), *_ALPHA_CLIP))
    raise ValueError("supply --alpha (known index) or --hill (estimate it)")


def _cmd_ci(args) -> int:
    overrides = {"level": args.level, "grid_step": args.grid_step,
                 "limit_reps": args.limit_reps}
    if args.lag is not None:
        overrides["score"] = {"name": "acf_lag", "lag": args.lag}
    if args.methods is not None:
        overrides["methods"] = tuple(args.methods.split(","))
    config, process_given = _load_config(args, overrides)
    x = ingest_csv(args.input)
    score = config.build_score()
    if score.is_matrix != (x.ndim == 2):
        raise ValueError("score dimensionality does not match the input columns")
    if score.is_matrix and not process_given:
        raise ValueError("vector data needs a process spec in the config "
                         "(the transfer matrix cannot be smoothed)")
    alpha = _resolve_alpha(args, x)
    methods = ("el",) if score.is_matrix else config.methods
    sac_lag = config.score.get("lag") if "sac" in methods else None
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    result = analyze_series(
        x, score, alpha, config.level, rng=rng,
        process=config.build_process() if score.is_matrix else None,
        transfer_mode="exact" if score.is_matrix else "smoothed",
        smoothing_bandwidth=config.smoothing_bandwidth,
        smoothing_spacing=config.smoothing_spacing,
        methods=methods, sac_lag=sac_lag, sac_rho="plugin",
        grid_step=config.grid_step, limit_reps=config.limit_reps,
        truncation=config.truncation, quad_points=config.quad_points,
        scale_convention=config.scale_convention, dependence=config.dependence)
    rows = []
    if result.el is not None:
        interval = result.el.interval
        rows.append({"method": "el", "level": config.level,
                     "lower": float("nan") if interval is None else interval.lower,
                     "upper": float("nan") if interval is None else interval.upper,
                     "length": float("nan") if interval is None else interval.length})
    if result.sac is not None:
        rows.append({"method": "sac", "level": config.level,
                     "lower": result.sac.lower, "upper": result.sac.upper,
                     "length": result.sac.length})
    meta = {"kind": "ci", "n": x.shape[0], "alpha": f"{result.alpha:.10g}",
            "theta_ref": f"{result.theta_ref:.10g}",
            "gamma": f"{result.gamma:.10g}"}
    write_csv(args.output, ["method", "level", "lower", "upper", "length"],
              rows, meta)
    return 0


def _cmd_limit(args) -> int:
    config, _ = _load_config(args, {"limit_reps": args.limit_reps})
    levels = [float(part) for part in args.levels.split(",") if part]
    if not levels:
        raise ValueError("--levels must name at least one level")
    spec = config.build_process()
    score = config.build_score()
    theta = args.theta if args.theta is not None else pivotal_value(spec, score)
    alpha = spec.noise.alpha
    if score.is_matrix:
        law = LimitLawConfig(score=score, theta0=np.atleast_1d(theta),
                             alpha=alpha,
                             psi_matrix=partial(transfer_matrix, spec),
                             truncation=config.truncation,
                             quad_points=config.quad_points,
                             reps=config.limit_reps,
                             scale_convention=config.scale_convention,
                             dependence=config.dependence)
    else:
        law = LimitLawConfig(score=score, theta0=np.atleast_1d(theta),
                             alpha=alpha,
                             transfer=partial(normalized_transfer, spec),
                             truncation=config.truncation,
                             quad_points=config.quad_points,
                             reps=config.limit_reps,
                             scale_convention=config.scale_convention)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    rows = []
    for level in levels:
        quantile = mc_quantile(law, level, rng)
        rows.append({"p": level, "gamma_p": quantile.value,
                     "stderr": quantile.stderr, "reps": quantile.reps})
    meta = {"kind": "limit", "theta0": f"{float(theta):.10g}",
            "alpha": f"{alpha:.10g}", "seed": config.seed}
    write_csv(args.output, ["p", "gamma_p", "stderr", "reps"], rows, meta)
    return 0


def _cmd_table(args) -> int:
    kwargs = {}
    if args.level is not None:
        kwargs["level"] = args.level
    if args.grid_step is not None:
        kwargs["grid_step"] = args.grid_step
    if args.limit_reps is not None:
        kwargs["limit_reps"] = args.limit_reps
    if args.seed is not None:
        kwargs["seed"] = args.seed
    result = run_table(args.table_id, **kwargs)
    result.write_csv(args.output)
    return 0


def _cmd_coverage(args) -> int:
    config, _ = _load_config(args, {"replicates": args.replicates,
                                    "n": args.n, "workers": args.workers})
    result = coverage_experiment(config)
    result.write_csv(args.output)
    summary = json.dumps(result.summary, indent=1, sort_keys=True)
    print(summary, file=sys.stderr if args.output == "-" else sys.stdout)
    return 0


def _cmd_hill_plot(args) -> int:
    x = ingest_csv(args.input)
    if x.ndim != 1:
        raise ValueError("hill-plot needs a scalar series")
    kmax = args.kmax if args.kmax is not None else x.size // 2
    if not 1 <= args.kmin <= kmax < x.size:
        raise ValueError(f"need 1 <= kmin <= kmax < n, got "
                         f"[{args.kmin}, {kmax}] with n={x.size}")
    ks = np.unique(np.linspace(args.kmin, kmax, args.points).astype(int))
    alphas = hill_curve(x, ks)
    rows = [{"k": int(k), "alpha_hat": float(a)} for k, a in zip(ks, alphas)]
    write_csv(args.output, ["k", "alpha_hat"], rows,
              {"kind": "hill-plot", "n": x.size})
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ci": _cmd_ci,
    "limit": _cmd_limit,
    "table": _cmd_table,
    "coverage": _cmd_coverage,
    "hill-plot": _cmd_hill_plot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
