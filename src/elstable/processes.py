"""Symmetric alpha-stable innovations and linear process simulation.

Conventions used throughout the package:

* A symmetric alpha-stable (SaS) variable with stability index ``alpha`` and
  scale ``sigma`` has characteristic function ``E exp(i Z u) = exp(-sigma
  |u|**alpha)``.  For ``alpha = 2`` this is a centered Gaussian with variance
  ``2 * sigma``; for ``alpha = 1`` and ``sigma = 1`` it is the standard
  Cauchy law.
* A positive ``a``-stable variable (``0 < a < 1``), as produced by
  :func:`sample_positive_stable`, follows the Laplace-transform convention
  ``E exp(-s S) = exp(-s**a)``.  For ``a = 1/2`` this is the Levy law with
  scale ``1/2``.
* A scalar linear process is ``X(t) = sum_j psi[j] * Z(t - j)`` with
  ``psi[0] = 1`` and i.i.d. SaS innovations ``Z``; vector processes replace
  ``psi[j]`` by ``d x d`` coefficient matrices acting on i.i.d. SaS
  coordinate innovations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The largest ``order`` a coefficient shorthand may ask for: its coefficient
# arrays are built whole, 8 bytes a lag for psi and 32 for a 2 x 2 vma.
MAX_SHORTHAND_ORDER = 100_000


def _is_finite_real(value) -> bool:
    """An integer or a float (bools are neither) that is finite."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


def check_number(value, name: str, integer: bool = False):
    """``value`` when it is a finite real number, or an integer when
    ``integer`` (bools are neither); a ``ValueError`` naming it otherwise."""
    if integer:
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    elif not _is_finite_real(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _float_array(values, name: str) -> np.ndarray:
    """Nested lists of finite numbers as a float array, else ``ValueError``."""
    entries = np.asarray(values, dtype=object)
    if not all(map(_is_finite_real, entries.flat)):
        raise ValueError(f"{name} must hold finite numbers, got {values!r}")
    return entries.astype(float)


@dataclass(frozen=True)
class StableParams:
    """Index and scale of a symmetric alpha-stable innovation law."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")


@dataclass(frozen=True)
class LinearProcessSpec:
    """Finite moving-average representation of a scalar linear process."""

    psi: np.ndarray
    noise: StableParams

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        if psi.ndim != 1 or psi.size == 0:
            raise ValueError("psi must be a non-empty 1-d coefficient array")
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi coefficients must be finite")
        if psi[0] != 1.0:
            raise ValueError("leading coefficient psi[0] must equal 1")
        object.__setattr__(self, "psi", psi)

    @property
    def order(self) -> int:
        return self.psi.size - 1


@dataclass(frozen=True)
class VectorProcessSpec:
    """Finite moving-average representation of a d-dimensional linear process.

    ``coeffs[j]`` is the d x d matrix applied to the innovation vector at lag
    j; ``coeffs[0]`` must be the identity.  Innovation coordinates are i.i.d.
    SaS with the given parameters.
    """

    coeffs: np.ndarray
    noise: StableParams

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise ValueError("coeffs must have shape (order + 1, d, d)")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficient matrices must be finite")
        if not np.array_equal(coeffs[0], np.eye(coeffs.shape[1])):
            raise ValueError("leading coefficient matrix must be the identity")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1


def sample_sas(params: StableParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. SaS variates by the Chambers-Mallows-Stuck method."""
    if n < 0:
        raise ValueError("n must be non-negative")
    alpha = params.alpha
    phi = rng.random(n)
    phi -= 0.5
    phi *= np.pi  # uniform on (-pi/2, pi/2)
    if alpha == 1.0:
        x = np.tan(phi)
    elif alpha == 2.0:
        w = rng.exponential(1.0, n)
        x = 2.0 * np.sin(phi) * np.sqrt(w)
    else:
        # sin(a phi) / cos(phi)**(1/a) * (cos((1 - a) phi) / w)**(1/a - 1),
        # evaluated in the same order in three buffers; the exponential
        # draws (exponential(1.0) to the bit) are the next ones either way
        x = np.multiply(alpha, phi)
        np.sin(x, out=x)
        w = np.cos(phi)
        w **= 1.0 / alpha
        x /= w
        rng.standard_exponential(out=w)
        phi *= 1.0 - alpha
        np.cos(phi, out=phi)
        phi /= w
        phi **= 1.0 / alpha - 1.0
        x *= phi
    x *= params.scale ** (1.0 / alpha)
    return x


def sample_positive_stable(alpha_half: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` positive ``alpha_half``-stable variates (Kanter's method).

    The output satisfies ``E exp(-s S) = exp(-s**alpha_half)``; in particular
    ``alpha_half = 1/2`` yields the Levy law with scale 1/2, whose cdf is
    ``2 * (1 - Phi(1 / sqrt(2 x)))``.
    """
    if not 0.0 < alpha_half < 1.0:
        raise ValueError(f"alpha_half must lie in (0, 1), got {alpha_half}")
    if n < 0:
        raise ValueError("n must be non-negative")
    a = alpha_half
    u = rng.random(n)
    u *= np.pi  # uniform on (0, pi)
    # sin(a u) / sin(u)**(1/a) * (sin((1 - a) u) / w)**((1 - a) / a), evaluated
    # in the same order in three buffers; the exponential draws
    # (exponential(1.0) to the bit) are the next ones either way
    x = np.multiply(a, u)
    np.sin(x, out=x)
    w = np.sin(u)
    w **= 1.0 / a
    x /= w
    rng.standard_exponential(out=w)
    u *= 1.0 - a
    np.sin(u, out=u)
    u /= w
    u **= (1.0 - a) / a
    x *= u
    return x


def linear_filter(innovations: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply the moving average ``X(t) = sum_j psi[j] innovations[t - j]``.

    ``innovations`` must carry ``n + order`` values; the first ``order``
    entries are the pre-sample burn-in, and the output has length ``n``.
    """
    psi = np.asarray(psi, dtype=float)
    z = np.asarray(innovations, dtype=float)
    if z.size < psi.size:
        raise ValueError("innovation stream shorter than the filter")
    return np.convolve(z, psi, mode="valid")


def vector_linear_filter(innovations: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Vector analogue of :func:`linear_filter` for (n + order, d) input."""
    z = np.asarray(innovations, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    order = coeffs.shape[0] - 1
    n = z.shape[0] - order
    if n <= 0:
        raise ValueError("innovation stream shorter than the filter")
    x = np.zeros((n, coeffs.shape[1]))
    for j in range(order + 1):
        x += z[order - j:order - j + n] @ coeffs[j].T
    return x


def simulate_linear(spec: LinearProcessSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Simulate ``n`` observations of the scalar linear process."""
    if n <= 0:
        raise ValueError("n must be positive")
    z = sample_sas(spec.noise, n + spec.order, rng)
    return linear_filter(z, spec.psi)


def simulate_vector_linear(spec: VectorProcessSpec, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Simulate ``n`` observations of the vector linear process.

    Innovation coordinates are drawn component-major: coordinate ``k``
    consumes the ``k``-th block of ``n + order`` draws from ``rng``, so the
    first coordinate of a diagonal system matches the scalar simulator run
    with the same generator state.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    d = spec.dim
    z = np.empty((n + spec.order, d))
    for k in range(d):
        z[:, k] = sample_sas(spec.noise, n + spec.order, rng)
    return vector_linear_filter(z, spec.coeffs)


def transfer_matrix(spec: VectorProcessSpec, omega) -> np.ndarray:
    """Evaluate the matrix transfer function ``Psi(omega)`` on a frequency grid.

    Returns an array of shape ``(len(omega), d, d)`` (the leading axis is
    squeezed for scalar input).
    """
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    j = np.arange(spec.coeffs.shape[0])
    phases = np.exp(1j * np.outer(omega, j))
    values = np.tensordot(phases, spec.coeffs, axes=(1, 0))
    return values[0] if scalar else values


def power_transfer_matrix(spec: VectorProcessSpec, omega) -> np.ndarray:
    """Power transfer ``g(omega) = Psi(omega) Psi(omega)*`` (Hermitian PSD)."""
    psi = transfer_matrix(spec, np.atleast_1d(omega))
    g = psi @ np.conj(np.swapaxes(psi, -1, -2))
    scalar = np.isscalar(omega) or np.ndim(omega) == 0
    return g[0] if scalar else g


def theoretical_acf(spec: LinearProcessSpec, lag: int) -> float:
    """Model autocorrelation ``rho(lag) = sum_j psi[j] psi[j+lag] / sum_j psi[j]**2``."""
    lag = abs(int(lag))
    psi = spec.psi
    if lag >= psi.size:
        return 0.0
    return float(psi[:psi.size - lag] @ psi[lag:] / (psi @ psi))


def ma_polynomial_spec(b: float, order: int = 100, alpha: float = 1.5,
                       scale: float = 1.0) -> LinearProcessSpec:
    """Moving-average spec with ``psi[j] = b**j / j`` for ``1 <= j <= order``."""
    j = np.arange(1, order + 1)
    psi = np.concatenate(([1.0], b ** j / j))
    return LinearProcessSpec(psi=psi, noise=StableParams(alpha=alpha, scale=scale))


def vma_table_spec(b: float, order: int = 100, alpha: float = 1.5,
                   scale: float = 1.0) -> VectorProcessSpec:
    """Two-dimensional moving-average spec with upper-triangular coefficients.

    Lag-j coefficient (j >= 1): ``[[0.7**j, j**-2 * b**j], [0, 0.5**j]]``.
    """
    coeffs = np.zeros((order + 1, 2, 2))
    coeffs[0] = np.eye(2)
    j = np.arange(1, order + 1)
    coeffs[1:, 0, 0] = 0.7 ** j
    coeffs[1:, 0, 1] = b ** j / j ** 2
    coeffs[1:, 1, 1] = 0.5 ** j
    return VectorProcessSpec(coeffs=coeffs, noise=StableParams(alpha=alpha, scale=scale))


def spec_from_dict(data: dict):
    """Process spec from its JSON configuration.

    A scalar spec (``"kind": "ma"``, the default) or a vector spec
    (``"kind": "vma"``) names the noise ``alpha`` and optional ``scale``.
    A scalar spec may give ``psi`` either as an explicit list or as
    ``{"kind": "exp_over_j", "b": 0.5, "order": 100}``; a vector spec may
    give ``coeffs`` as nested lists or as ``{"kind": "table", "b": 0.3,
    "order": 100}``.
    """
    def required(data: dict, key: str, what: str = "process spec"):
        if key not in data:
            raise ValueError(f"{what} has no {key!r} entry")
        return data[key]

    def shorthand(data: dict, what: str) -> tuple:
        """The weight ``b`` and the ``order`` of a shorthand."""
        order = check_number(data.get("order", 100), f"{what} order", integer=True)
        if not 0 <= order <= MAX_SHORTHAND_ORDER:
            raise ValueError(f"{what} order must lie in [0, {MAX_SHORTHAND_ORDER}], "
                             f"got {order}")
        return float(check_number(required(data, "b", f"the {what}"), f"{what} b")), order

    noise = StableParams(alpha=float(check_number(required(data, "alpha"), "process alpha")),
                         scale=float(check_number(data.get("scale", 1.0), "process scale")))
    kind = data.get("kind", "ma")
    if kind == "ma":
        psi = required(data, "psi", "an 'ma' process spec")
        if isinstance(psi, dict):
            if psi.get("kind") != "exp_over_j":
                raise ValueError(f"unknown psi shorthand: {psi.get('kind')!r}")
            return ma_polynomial_spec(*shorthand(psi, "psi shorthand"),
                                      noise.alpha, noise.scale)
        return LinearProcessSpec(psi=_float_array(psi, "psi"), noise=noise)
    if kind == "vma":
        coeffs = required(data, "coeffs", "a 'vma' process spec")
        if isinstance(coeffs, dict):
            if coeffs.get("kind") != "table":
                raise ValueError(f"unknown coeffs shorthand: {coeffs.get('kind')!r}")
            return vma_table_spec(*shorthand(coeffs, "coeffs shorthand"),
                                  noise.alpha, noise.scale)
        return VectorProcessSpec(coeffs=_float_array(coeffs, "coeffs"), noise=noise)
    raise ValueError(f"unknown process kind: {kind!r}")
