"""Shared fixtures: deterministic generators and standard process designs."""

import numpy as np
import pytest

from elstable import harness
from elstable.processes import ma_polynomial_spec


@pytest.fixture(autouse=True)
def _release_coverage_pool():
    """Shut down the coverage worker pool a test kept, so that no patched or
    fake worker outlives its test."""
    yield
    harness._release_pool()


@pytest.fixture
def rng():
    """Fresh deterministic generator; tests that need independence reseed."""
    return np.random.default_rng(20240301)


@pytest.fixture(scope="session")
def spec_half():
    """The b = 0.5 moving-average design used across the scalar studies."""
    return ma_polynomial_spec(0.5)


@pytest.fixture(scope="session")
def series_half():
    """One fixed realization (n = 300) of the b = 0.5 design."""
    from elstable.processes import simulate_linear

    spec = ma_polynomial_spec(0.5)
    rng = np.random.default_rng(np.random.SeedSequence((77, 0)))
    return simulate_linear(spec, 300, rng)
