"""The benchmark's workloads: inputs from a seed, one call, output checks.

Every workload is a closed loop with one client: the runner issues the next
call only when the previous one has returned, and every call of a run gets
the same inputs, which are made from the run's seed before timing starts.
``call`` goes through the package's public entry points exactly as a user
would; ``check`` compares the output with the golden CSV recorded at the
default seed and, at every seed, with the invariants the theory guarantees.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from elstable import cli
from elstable.harness import (ExperimentConfig, coverage_experiment,
                              pivotal_value)
from elstable.processes import simulate_linear, spec_from_dict
from elstable.spectral import sample_acf

DEFAULT_SEED = 20140214
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Acceptance design 1: MA psi_j = 0.5**j / j driven by SaS(1.5) noise.
PROCESS = {"kind": "ma", "alpha": 1.5, "psi": {"kind": "exp_over_j", "b": 0.5}}
LAG = 2
# The CSV writer prints 10 significant digits; values read back from it are
# compared at that precision, in-memory records at 1e-12.
CSV_TOL = 1e-9
EXACT_TOL = 1e-12


@dataclass
class Outcome:
    """What one call produced: items attempted and failed, and its CSV."""

    attempted: int
    failed: int
    text: str
    records: list = field(default_factory=list)


def parse_csv(text: str) -> tuple[dict, list[dict]]:
    meta, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if sep:
                meta[key] = value
        elif line:
            body.append(line)
    return meta, list(csv.DictReader(body))


def mismatched_rows(text: str, golden: str) -> int:
    """Data rows that differ from the golden CSV in any of its columns.

    Columns the golden file lacks are ignored, so a schema that only adds
    columns keeps matching; a missing or extra row counts once.
    """
    _, rows = parse_csv(text)
    _, expected = parse_csv(golden)
    bad = abs(len(rows) - len(expected))
    for row, want in zip(rows, expected):
        bad += any(row.get(key) != value for key, value in want.items())
    return bad


def _interval_errors(what: str, lower: float, upper: float) -> list[str]:
    if not (math.isfinite(lower) and math.isfinite(upper) and lower <= upper):
        return [f"{what}: bounds not finite and ordered: [{lower}, {upper}]"]
    return []


class Workload:
    name = ""
    items_per_call = 1
    pool_workers = 0  # worker processes a call starts; 0 for none
    warmup_calls = 1  # untimed calls before timing starts
    # Code a fresh interpreter runs to import the CLI and build the score and
    # process of the workload: the set-up every CLI invocation pays.
    setup_code = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def call(self) -> Outcome:
        raise NotImplementedError

    def invariant_errors(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    @property
    def golden_path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.csv"

    def golden_applies(self) -> bool:
        return self.seed == DEFAULT_SEED and not self.tiny

    def check(self, outcome: Outcome) -> tuple[int, list[str]]:
        """Golden-row mismatches (default seed only) and invariant errors."""
        mismatch = 0
        if self.golden_applies():
            mismatch = mismatched_rows(outcome.text, self.golden_path.read_text())
        return mismatch, self.invariant_errors(outcome)


class CliWorkload(Workload):
    argv: list = []

    def call(self) -> Outcome:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(self.argv)
        return Outcome(attempted=1, failed=int(code != 0), text=buffer.getvalue())


_CONFIG_SETUP = f"""
import elstable.cli
from elstable.harness import ExperimentConfig
config = ExperimentConfig(process={PROCESS!r}, score={{"name": "acf_lag", "lag": {LAG}}})
config.build_score()
config.build_process()
"""


class CoverageA15(Workload):
    """``coverage_experiment`` on acceptance design 1 with two workers."""

    name = "coverage-a15"
    setup_code = _CONFIG_SETUP
    pool_workers = 2
    # Every call starts a fresh pool, so the first is no colder than the rest.
    warmup_calls = 0

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        size = ({"n": 64, "limit_reps": 1000, "grid_step": 0.01} if tiny
                else {"n": 300})
        self.config = ExperimentConfig(
            process=PROCESS, score={"name": "acf_lag", "lag": LAG}, level=0.9,
            replicates=100, seed=seed, methods=("el", "sac"), alpha_mode="known",
            transfer_mode="smoothed", workers=self.pool_workers, **size)
        self.items_per_call = self.config.replicates
        spec = self.config.build_process()
        self.theta0 = pivotal_value(spec, self.config.build_score(),
                                    self.config.quad_points)
        # Replicate i simulates its series from substream (seed, 1 + i).
        self.acf = []
        for index in range(self.config.replicates):
            rng = np.random.default_rng(np.random.SeedSequence((seed, 1 + index)))
            x = simulate_linear(spec, self.config.n, rng)
            self.acf.append(float(sample_acf(x, LAG)))

    def call(self, workers: int | None = None) -> Outcome:
        config = self.config
        if workers is not None:
            config = replace(config, workers=workers)
        result = coverage_experiment(config)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            result.write_csv("-")
        failed = sum(r["status"] != "ok" for r in result.records)
        return Outcome(attempted=self.config.replicates, failed=failed,
                       text=buffer.getvalue(), records=result.records)

    def invariant_errors(self, outcome):
        if len(outcome.records) != self.config.replicates:
            return [f"{len(outcome.records)} records, "
                    f"expected {self.config.replicates}"]
        errors = []
        for rec in outcome.records:
            if rec["status"] != "ok":
                continue
            i = rec["replicate"]
            if not rec["el_empty"]:
                errors += _interval_errors(f"replicate {i} el",
                                           rec["el_lower"], rec["el_upper"])
                inside = rec["el_lower"] <= self.theta0 <= rec["el_upper"]
                if rec["el_covered"] != int(inside):
                    errors.append(f"replicate {i}: el_covered disagrees with bounds")
            errors += _interval_errors(f"replicate {i} sac",
                                       rec["sac_lower"], rec["sac_upper"])
            inside = rec["sac_lower"] <= self.theta0 <= rec["sac_upper"]
            if rec["sac_covered"] != int(inside):
                errors.append(f"replicate {i}: sac_covered disagrees with bounds")
            centre = 0.5 * (rec["sac_lower"] + rec["sac_upper"])
            if abs(centre - self.acf[i]) > EXACT_TOL:
                errors.append(f"replicate {i}: sac centre {centre!r} is not "
                              f"sample_acf {self.acf[i]!r}")
        return errors


class CiN10k(CliWorkload):
    """``elstable ci`` on one n = 10 000 series of design 1, in-process."""

    name = "ci-n10k"
    setup_code = _CONFIG_SETUP

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.n = 500 if tiny else 10_000
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        x = simulate_linear(spec_from_dict(PROCESS), self.n, rng)
        self.acf = float(sample_acf(x, LAG))
        path = Path(workdir) / "series.csv"
        path.write_text("".join(f"{v:.17g}\n" for v in x))
        self.argv = ["ci", "--input", str(path), "--alpha", "1.5",
                     "--lag", str(LAG), "--seed", str(seed), "--output", "-"]
        if tiny:
            self.argv += ["--limit-reps", "1000", "--grid-step", "0.01"]

    def invariant_errors(self, outcome):
        meta, rows = parse_csv(outcome.text)
        if [r.get("method") for r in rows] != ["el", "sac"]:
            return [f"expected el and sac rows, got {rows}"]
        if meta.get("n") != str(self.n):
            return [f"meta n={meta.get('n')}, expected {self.n}"]
        errors = []
        for row in rows:
            errors += _interval_errors(row["method"], float(row["lower"]),
                                       float(row["upper"]))
        centre = 0.5 * (float(rows[1]["lower"]) + float(rows[1]["upper"]))
        if abs(centre - self.acf) > CSV_TOL:
            errors.append(f"sac centre {centre!r} is not sample_acf {self.acf!r}")
        return errors


class Table5Var1(CliWorkload):
    """``elstable table --id 5``: the bivariate coupling design, four cases."""

    name = "table5-var1"
    setup_code = """
import elstable.cli
from elstable.processes import vma_table_spec
from elstable.scores import coupling_var1_score
coupling_var1_score()
vma_table_spec(0.6, alpha=1.5)
"""
    cases = ["case-8", "case-9", "case-10", "case-11"]

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.argv = ["table", "--id", "5", "--seed", str(seed), "--output", "-"]
        if tiny:
            self.argv += ["--limit-reps", "1000", "--grid-step", "0.01"]

    def invariant_errors(self, outcome):
        _, rows = parse_csv(outcome.text)
        if [r.get("case") for r in rows] != self.cases:
            return [f"expected cases {self.cases}, got {rows}"]
        errors = []
        for row in rows:
            errors += _interval_errors(row["case"], float(row["el_lower"]),
                                       float(row["el_upper"]))
        return errors


class LimitA15(CliWorkload):
    """``elstable limit``: full stable-series quantiles at two levels."""

    name = "limit-a15"
    setup_code = _CONFIG_SETUP
    levels = (0.9, 0.95)

    def __init__(self, seed, workdir, tiny):
        super().__init__(seed, workdir, tiny)
        self.reps = 1000 if tiny else 100_000
        self.argv = ["limit", "--levels", ",".join(map(str, self.levels)),
                     "--seed", str(seed), "--output", "-"]
        if tiny:
            self.argv += ["--limit-reps", str(self.reps)]

    def invariant_errors(self, outcome):
        _, rows = parse_csv(outcome.text)
        if [float(r.get("p", "nan")) for r in rows] != list(self.levels):
            return [f"expected levels {self.levels}, got {rows}"]
        errors = []
        quantiles = [float(r["gamma_p"]) for r in rows]
        if not all(math.isfinite(q) and q > 0.0 for q in quantiles):
            errors.append(f"quantiles not finite and positive: {quantiles}")
        if quantiles != sorted(quantiles):
            errors.append(f"quantiles decrease with the level: {quantiles}")
        for row in rows:
            if int(row["reps"]) != self.reps:
                errors.append(f"reps {row['reps']}, expected {self.reps}")
            if not float(row["stderr"]) >= 0.0:
                errors.append(f"stderr {row['stderr']} is not a non-negative number")
        return errors


WORKLOADS = {w.name: w for w in (CoverageA15, CiN10k, Table5Var1, LimitA15)}
