"""Per-layer spans and counters recorded from outside the package.

The tracer replaces public functions of ``elstable`` modules with timing
wrappers for the duration of a ``with tracer.installed():`` block and puts
the originals back afterwards.  Nothing under ``src/`` is edited: a function
is swapped in every ``elstable`` module namespace that holds it, because the
package imports its helpers by name (``harness.solve_lagrange_batch`` is the
same object as ``emplik.solve_lagrange_batch``).

A layer's self time is its spans' total duration minus the part covered by
the spans of the layers it called.  Counters are read from arguments and
return values (``BatchSolution``, ``RegionScan``, array shapes), never from
package internals.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import numpy as np


def _rows_values(tracer, args, kwargs, result):
    tracer.add("scores.rows.values", int(np.size(result)))


def _batch_counts(tracer, args, kwargs, result):
    ran = np.asarray(result.hull_ok)
    iters = np.asarray(result.iterations)[ran]
    tracer.add("emplik.batch.problems", int(np.size(result.converged)))
    tracer.add("emplik.batch.iter_sum", int(iters.sum()))
    tracer.add("emplik.batch.iter_rows", int(iters.size))
    tracer.peak("emplik.batch.iter_max", int(iters.max()) if iters.size else 0)
    tracer.add("emplik.batch.unconverged", int(np.sum(~result.converged & ran)))
    tracer.add("emplik.batch.hull_fail", int(np.sum(~ran)))


def _cos_terms(tracer, args, kwargs, result):
    smoother, omega = args[0], args[1] if len(args) > 1 else kwargs["omega"]
    tracer.add("spectral.smoothed.cos_terms", int(np.size(omega)) * (smoother.n - 1))


def _sas_draws(tracer, args, kwargs, result):
    tracer.add("processes.sas_draws", int(np.size(result)))


def _grid_edge(tracer, args, kwargs, result):
    interval, thetas = result.interval, result.thetas
    if interval is not None and (interval.lower == thetas[0]
                                 or interval.upper == thetas[-1]):
        tracer.add("harness.grid_edge_hits", 1)


# (module, attribute, layer, counter).  An attribute written "Class.method"
# is patched on the class.  Targets missing from the installed package are
# skipped and listed in ``Tracer.missing``.
TARGETS = [
    ("processes", "sample_sas", "processes.sample_sas", _sas_draws),
    ("processes", "simulate_linear", "processes.simulate", None),
    ("processes", "simulate_vector_linear", "processes.simulate", None),
    ("spectral", "self_normalized_grid", "spectral.periodogram", None),
    ("spectral", "periodogram_matrix_grid", "spectral.periodogram", None),
    ("spectral", "SmoothedTransfer.__call__", "spectral.smoothed", _cos_terms),
    ("scores", "estimating_function", "scores.rows", _rows_values),
    ("scores", "estimating_function_mv", "scores.rows", _rows_values),
    ("emplik", "solve_lagrange_batch", "emplik.batch", _batch_counts),
    ("limitlaw", "prepare_limit", "limitlaw.prepare", None),
    ("limitlaw", "compute_W", "limitlaw.W", None),
    ("limitlaw", "compute_W_mv", "limitlaw.W", None),
    ("limitlaw", "compute_V_coeffs", "limitlaw.V", None),
    ("limitlaw", "compute_V_coeffs_mv", "limitlaw.V", None),
    ("limitlaw", "sample_limit_stat", "limitlaw.series", None),
    ("limitlaw", "sample_stable_ratio", "limitlaw.ratio", None),
    ("harness", "pivotal_value", "harness.pivotal", None),
    ("harness", "whittle_point", "harness.whittle", None),
    ("harness", "el_confidence_region", "harness.region", _grid_edge),
    ("harness", "analyze_series", "harness.analyze", None),
    ("harness", "render_csv", "harness.csv", None),
    ("harness", "ingest_csv", "cli.ingest", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Span and counter recorder; one instance per traced phase."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []  # time covered by child spans, one slot per open span

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def _wrap(self, layer, fn, counter):
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.self_s[layer] += duration - stack.pop()
                self.calls[layer] += 1
                if stack:
                    stack[-1] += duration
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its traced wrapper inside the block."""
        modules = [m for name, m in sys.modules.items()
                   if (name == "elstable" or name.startswith("elstable."))
                   and m is not None]
        undo = []
        try:
            for module_name, attr, layer, counter in TARGETS:
                module = sys.modules.get(f"elstable.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, method or attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(layer, original, counter)
                if owner_name:
                    undo.append((owner, method, original))
                    setattr(owner, method, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, name, original))
                            setattr(mod, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
