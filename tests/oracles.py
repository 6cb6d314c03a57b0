"""Reference evaluations that only the tests use: the periodograms and the
scalar transfer at arbitrary frequencies, by their direct sums."""

import numpy as np

from elstable.spectral import _self_normalized, _validated


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
