"""Command-line interface: simulation, intervals, thresholds, and tables.

Every subcommand but ``hill-plot`` reads an optional JSON experiment config
(the fields of ``ExperimentConfig``), lets the flags named after its fields
override it, and passes the one config on to the harness; ``table`` takes
the seed and the analysis settings from it, while its built-in designs fix
the process, score and series length.  Outputs are CSV files with the
schema-version header, written to ``--output`` (``-`` is stdout).  Exit
codes: 0 on success, 2 for validation problems (bad flags, malformed input,
out-of-domain settings), 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .harness import (ExperimentConfig, analyze_series, coverage_experiment,
                      estimated_alpha, ingest_csv, interval_cells, limit_law, pivotal_value,
                      run_table, write_csv)
from .limitlaw import mc_quantile
from .processes import simulate_linear, simulate_vector_linear
from .scores import check_alpha
from .spectral import hill_curve


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", "-o", default="-", metavar="FILE",
                        help="output CSV path (default: stdout)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="JSON experiment config; flags override its fields")
    parser.add_argument("--seed", type=int, help="master seed")
    _add_output(parser)


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
    p.add_argument("--estimate-alpha", action="store_true",
                   help="estimate the stability index from the data")
    def lag(text: str) -> dict:  # argparse names the type in its messages
        return {"name": "acf_lag", "lag": int(text)}

    p.add_argument("--lag", type=lag, dest="score", metavar="LAG",
                   help="autocorrelation lag of the default score")
    p.add_argument("--methods", type=lambda text: text.split(","), metavar="LIST",
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
    p.add_argument("--workers", type=int, help="worker processes, the calling one included")

    p = sub.add_parser("hill-plot", help="tail-index estimates over a k range")
    _add_output(p)
    p.add_argument("--input", "-i", required=True, metavar="FILE",
                   help="series CSV (one column)")
    p.add_argument("--kmin", type=int, default=5, help="smallest k (default 5)")
    p.add_argument("--kmax", type=int,
                   help="largest k (default: half the series length)")
    p.add_argument("--points", type=int, default=50,
                   help="number of k values (default 50)")

    return parser


def _load_config(args) -> tuple[ExperimentConfig, bool]:
    """Experiment config from the JSON file, overridden by the flags that are
    named after its fields.

    Returns the config and whether the file supplied a process spec (some
    commands fall back to the config's default study design when it did not).
    """
    raw = {}
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
    process_given = "process" in raw
    for name, value in vars(args).items():
        if name in ExperimentConfig.__dataclass_fields__ and value is not None:
            raw[name] = value
    return ExperimentConfig.from_dict(raw), process_given


def _cmd_simulate(args) -> int:
    config, _ = _load_config(args)
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
    if args.alpha is not None and args.estimate_alpha:
        raise ValueError("supply either --alpha or --estimate-alpha, not both")
    if args.alpha is not None:
        return check_alpha(args.alpha)
    if args.estimate_alpha:
        if x.ndim != 1:
            raise ValueError("--estimate-alpha needs a scalar series")
        estimate, alpha = estimated_alpha(x)
        if alpha != estimate:
            print(f"note: estimated alpha {estimate:.2f} clipped to {alpha:g}",
                  file=sys.stderr)
        return alpha
    raise ValueError("supply --alpha (known index) or --estimate-alpha (estimate it)")


def _cmd_ci(args) -> int:
    config, process_given = _load_config(args)
    x = ingest_csv(args.input)
    score = config.build_score()
    if score.is_matrix and not process_given:
        raise ValueError("vector data needs a process spec in the config "
                         "(the transfer matrix cannot be smoothed)")
    alpha = _resolve_alpha(args, x)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
    # The process of a scalar data series is unknown: its transfer is
    # smoothed from the data and the SAC interval uses sample autocorrelations.
    result = analyze_series(
        x, score, alpha, config, rng=rng,
        process=config.build_process() if score.is_matrix else None)
    rows = []
    if result.el is not None:
        rows.append({"method": "el", "level": config.level,
                     **interval_cells(result.el.interval)})
    if result.sac is not None:
        rows.append({"method": "sac", "level": config.level,
                     **interval_cells(result.sac)})
    meta = {"kind": "ci", "n": x.shape[0], "alpha": f"{result.alpha:.10g}",
            "theta_ref": f"{result.theta_ref:.10g}",
            "gamma": f"{result.gamma:.10g}"}
    write_csv(args.output, ["method", "level", "lower", "upper", "length"],
              rows, meta)
    return 0


def _cmd_limit(args) -> int:
    config, _ = _load_config(args)
    levels = [float(part) for part in args.levels.split(",") if part]
    if not levels:
        raise ValueError("--levels must name at least one level")
    spec = config.build_process()
    score = config.build_score()
    theta = (args.theta if args.theta is not None
             else pivotal_value(spec, score, config.quad_points))
    alpha = spec.noise.alpha
    law = limit_law(config, score, theta, alpha, spec)
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
    config, _ = _load_config(args)
    result = run_table(args.table_id, **config.to_dict())
    result.write_csv(args.output)
    return 0


def _cmd_coverage(args) -> int:
    config, _ = _load_config(args)
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
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    # past one point per integer k every k is already hit: the same ks
    points = min(args.points, kmax - args.kmin + 1)
    ks = np.unique(np.linspace(args.kmin, kmax, points).astype(int))
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it for every in-process
    call would leave hundreds of objects in reference cycles each time."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # first, as LinAlgError is a ValueError
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
