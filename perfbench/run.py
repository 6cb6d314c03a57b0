"""Run one workload of the elstable benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy, and the run
stops with exit code 2 when that tree is missing.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it stamps the run environment,
the per-call times, the output checks and the warnings the calls raised.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` first times the workload untraced, then runs one call with
the per-layer tracer installed and reports per-layer self times and counts,
plus the tracing overhead (traced call time over untraced call time).  The
coverage workload's traced call uses one worker so that every span stays in
this process; its untraced calls at two and at one worker give the pool
scaling.  BLAS and OpenMP thread settings are left as the environment has
them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
POLL_S = 0.1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
            "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scores.rows.calls": "count",
    "scores.rows.self_s": "s",
    "scores.rows.values": "count",
    "emplik.batch.calls": "count",
    "emplik.batch.self_s": "s",
    "emplik.batch.problems": "count",
    "emplik.batch.iter_mean": "iter",
    "emplik.batch.iter_max": "iter",
    "emplik.batch.unconverged": "count",
    "emplik.batch.hull_fail": "count",
    "spectral.periodogram.self_s": "s",
    "spectral.smoothed.calls": "count",
    "spectral.smoothed.self_s": "s",
    "spectral.smoothed.cos_terms": "count",
    "limitlaw.prepare.self_s": "s",
    "limitlaw.W.self_s": "s",
    "limitlaw.V.self_s": "s",
    "limitlaw.warnings": "count",
    "limitlaw.series.self_s": "s",
    "limitlaw.ratio.self_s": "s",
    "processes.sample_sas.self_s": "s",
    "processes.sas_draws": "count",
    "processes.simulate.self_s": "s",
    "harness.pivotal.self_s": "s",
    "harness.whittle.self_s": "s",
    "harness.region.self_s": "s",
    "harness.analyze.self_s": "s",
    "harness.grid_edge_hits": "count",
    "harness.pool.scaling": "ratio",
    "harness.pool.worker_threads": "count",
    "harness.pool.worker_rss_mb": "MB",
    "harness.csv.self_s": "s",
    "cli.ingest.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead": "ratio",
    "check.output_mismatch": "count",
    "check.fail_frac": "ratio",
}


def source_tree_present() -> bool:
    return (SRC / "elstable" / "__init__.py").is_file()


def import_package():
    """Import ``elstable`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import elstable

    origin = Path(elstable.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"elstable imported from {origin}, not from {SRC}")
    return elstable


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                      env.get("PYTHONPATH")]))
    return env


def measure_setup(code: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and build inputs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
    }


class WorkerThreads:
    """Peak thread count of each child process, read from ``/proc``."""

    def __init__(self):
        self.peak = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _children(self) -> set[str]:
        pids = set()
        for task in Path(f"/proc/{os.getpid()}/task").iterdir():
            try:
                pids.update((task / "children").read_text().split())
            except OSError:
                continue
        return pids

    def _poll(self):
        while not self._stop.is_set():
            for pid in self._children():
                try:
                    status = Path(f"/proc/{pid}/status").read_text()
                except OSError:
                    continue
                for line in status.splitlines():
                    if line.startswith("Threads:"):
                        count = int(line.split()[1])
                        self.peak[pid] = max(self.peak.get(pid, 0), count)
            self._stop.wait(POLL_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


class Run:
    """Calls of one workload, their times and the results of their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.durations = []
        self.rates = []  # items completed per second, one per timed call
        self.attempted = self.failed = self.mismatch = self.checks = 0
        self.errors = []
        self.warnings = {}

    def call(self, *args):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            outcome = self.workload.call(*args)
            duration = time.perf_counter() - start
        for item in caught:
            name = item.category.__name__
            self.warnings[name] = self.warnings.get(name, 0) + 1
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        mismatch, errors = self.workload.check(outcome)
        self.mismatch += mismatch
        self.errors += errors
        self.checks += 1
        return duration, caught

    def warm_up(self):
        """Untimed calls that let lazy imports and first-touch page faults finish."""
        for _ in range(self.workload.warmup_calls):
            self.call()

    def loop(self, seconds: float) -> list[float]:
        """Untraced calls, one after another, until ``seconds`` have passed."""
        durations = []
        deadline = time.perf_counter() + seconds
        while not durations or time.perf_counter() < deadline:
            done = self.attempted - self.failed
            durations.append(self.call()[0])
            self.rates.append((self.attempted - self.failed - done) / durations[-1])
        self.durations += durations
        return durations

    @property
    def correct(self) -> bool:
        return self.mismatch == 0 and not self.errors and self.failed == 0


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    # This process only: the set-up interpreters are children too, and the
    # peak of a pool worker depends on which replicates it happened to get.
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": statistics.median(run.rates),
        "call_p50_s": statistics.median(run.durations),
        "peak_rss_mb": usage / 1024.0,
    }


def per_layer(run: Run, seconds: float) -> tuple[dict, list[str]]:
    workload = run.workload
    scaling = threads = worker_rss = 0
    if workload.pool_workers:
        with WorkerThreads() as pool_threads:
            pooled = run.call()[0]
        # A traced run starts no set-up interpreters: the children so far are
        # the workers of this pool.
        worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        one = run.call(1)[0]
        run.durations += [pooled, one]
        scaling = one / pooled
        threads = max(pool_threads.peak.values(), default=0)
        untraced, args = one, (1,)
    else:
        untraced, args = statistics.median(run.loop(seconds)), ()
    tracer = Tracer()
    with tracer.installed():
        traced, caught = run.call(*args)
    limit_warnings = sum(issubclass(w.category, (RuntimeWarning, UserWarning))
                         for w in caught)
    values = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = tracer.self_s[layer]
        elif kind == "calls":
            values[name] = tracer.calls[layer]
        else:
            values[name] = tracer.counts[name]
    rows = tracer.counts["emplik.batch.iter_rows"]
    values.update({
        "emplik.batch.iter_mean":
            tracer.counts["emplik.batch.iter_sum"] / rows if rows else 0.0,
        "limitlaw.warnings": limit_warnings,
        "harness.pool.scaling": scaling,
        "harness.pool.worker_threads": threads,
        "harness.pool.worker_rss_mb": worker_rss,
        "trace.overhead": traced / untraced,
        "check.output_mismatch": run.mismatch,
        "check.fail_frac": run.failed / run.attempted,
    })
    return values, tracer.missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's self-check")
    args = parser.parse_args(argv)
    if not source_tree_present():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload_cls = workloads.WORKLOADS[args.workload]
    setup_times = [] if args.trace else measure_setup(workload_cls.setup_code)
    workdir = Path(tempfile.mkdtemp(prefix="_work-", dir=HERE))
    try:
        run = Run(workload_cls(seed, workdir, args.tiny))
        run.warm_up()
        missing = []
        if args.trace:
            metrics, missing = per_layer(run, args.seconds)
            units = PER_LAYER
        else:
            run.loop(args.seconds)
            metrics, units = end_to_end(run, setup_times), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "env": environment(),
        "setup_times_s": setup_times,
        "warmup_calls": run.workload.warmup_calls, "call_s": run.durations,
        "items_per_call": run.workload.items_per_call,
        "golden_checked": run.workload.golden_applies(),
        "calls_checked": run.checks, "output_mismatch": run.mismatch,
        "fail_frac": run.failed / run.attempted, "errors": run.errors[:10],
        "warnings": run.warnings, "untraced_targets": missing,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
