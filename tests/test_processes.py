"""Stable samplers, linear filters, transfer functions, and serialization."""

import json
import math

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import cauchy, kstest, norm

from elstable.processes import (LinearProcessSpec, StableParams, VectorProcessSpec,
                                linear_filter, ma_polynomial_spec,
                                power_transfer_matrix, sample_positive_stable,
                                sample_sas, simulate_linear, simulate_vector_linear,
                                spec_from_dict, theoretical_acf, transfer_matrix,
                                vector_linear_filter, vma_table_spec)
from elstable.processes import _cms, _kanter
from oracles import cms, kanter, normalized_transfer, transfer_polynomial

N_LAW = 200_000  # sample size for distributional checks


# --------------------------------------------------------------------------
# innovation samplers against closed-form laws

def test_sas_alpha2_is_gaussian_variance_two(rng):
    x = sample_sas(StableParams(2.0), N_LAW, rng)
    stat = kstest(x, norm(scale=math.sqrt(2.0)).cdf)
    assert stat.pvalue > 0.01


def test_sas_alpha1_is_standard_cauchy(rng):
    x = sample_sas(StableParams(1.0), N_LAW, rng)
    stat = kstest(x, cauchy.cdf)
    assert stat.pvalue > 0.01
    q1, q3 = np.quantile(x, [0.25, 0.75])
    assert abs(q1 + 1.0) < 0.02 and abs(q3 - 1.0) < 0.02


def test_sas_characteristic_function(rng):
    # E exp(i u X) = exp(-sigma |u|^alpha) for the general index.
    alpha, sigma = 1.5, 1.0
    x = sample_sas(StableParams(alpha, sigma), N_LAW, rng)
    for u in (0.3, 1.0, 2.5):
        ecf = np.mean(np.cos(u * x))
        assert abs(ecf - math.exp(-sigma * abs(u) ** alpha)) < 4.0 / math.sqrt(N_LAW)


def test_sas_scale_parameter_enters_as_sigma_power(rng):
    # cf exp(-sigma |u|^alpha) means X(sigma) =d sigma^(1/alpha) X(1).
    alpha, sigma = 1.5, 3.0
    x = sample_sas(StableParams(alpha, sigma), N_LAW, rng)
    u = 0.7
    ecf = np.mean(np.cos(u * x))
    assert abs(ecf - math.exp(-sigma * u ** alpha)) < 4.0 / math.sqrt(N_LAW)


def test_positive_stable_levy_half_cdf(rng):
    # a = 1/2 gives the Levy law with scale 1/2: F(x) = erfc(1 / (2 sqrt x)).
    s = sample_positive_stable(0.5, N_LAW, rng)
    assert np.all(s > 0.0)
    stat = kstest(s, lambda x: erfc(1.0 / (2.0 * np.sqrt(x))))
    assert stat.pvalue > 0.01


def test_positive_stable_laplace_transform(rng):
    # E exp(-s S) = exp(-s^a); bounded integrand so the error is sub-1/sqrt(N).
    a = 0.75
    draws = sample_positive_stable(a, N_LAW, rng)
    for s in (0.5, 1.0, 2.0):
        lt = np.mean(np.exp(-s * draws))
        assert abs(lt - math.exp(-(s ** a))) < 4.0 / math.sqrt(N_LAW)


def test_sampler_argument_validation(rng):
    with pytest.raises(ValueError):
        sample_positive_stable(1.0, 10, rng)
    with pytest.raises(ValueError):
        sample_positive_stable(0.5, -1, rng)
    with pytest.raises(ValueError):
        sample_sas(StableParams(1.5), -1, rng)
    with pytest.raises(ValueError):
        StableParams(2.5)
    with pytest.raises(ValueError):
        StableParams(1.5, scale=0.0)


def test_samplers_are_seed_reproducible():
    a = sample_sas(StableParams(1.5), 5, np.random.default_rng(123))
    b = sample_sas(StableParams(1.5), 5, np.random.default_rng(123))
    np.testing.assert_array_equal(a, b)
    c = sample_positive_stable(0.75, 5, np.random.default_rng(123))
    d = sample_positive_stable(0.75, 5, np.random.default_rng(123))
    np.testing.assert_array_equal(c, d)


# --------------------------------------------------------------------------
# filters and simulators

@pytest.mark.parametrize("n", [1, 7, 1000, 100_000])
def test_stable_transforms_equal_their_written_out_forms_bitwise(n):
    # both samplers go through one Zolotarev transform; each gives the bits
    # of its own form written out, the tangent at alpha = 1 and the Gaussian
    # at alpha = 2 included
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        u, w = rng.random(n), rng.standard_exponential(n)

        def draws(exponentials=True):
            return u.copy(), w.copy() if exponentials else None

        for a in (0.05, 0.25, 0.5, 0.75, 0.95, 0.995):
            assert _kanter(a, *draws()).tobytes() == kanter(a, *draws()).tobytes()
        for alpha in (0.3, 0.8, 1.0, 1.2, 1.5, 1.9, 1.99, 2.0):
            exponentials = alpha != 1.0
            assert (_cms(alpha, *draws(exponentials)).tobytes()
                    == cms(alpha, *draws(exponentials)).tobytes())


def test_linear_filter_orientation():
    # X(t) = Z(t) + 0.5 Z(t-1): the most recent innovation carries psi[0].
    z = np.array([1.0, 10.0, 100.0])
    out = linear_filter(z, np.array([1.0, 0.5]))
    np.testing.assert_allclose(out, [10.0 + 0.5, 100.0 + 5.0])


def test_linear_filter_needs_enough_burn_in():
    with pytest.raises(ValueError):
        linear_filter(np.array([1.0]), np.array([1.0, 0.5]))


def test_vector_filter_matches_scalar_on_diagonal():
    rng = np.random.default_rng(5)
    z = rng.normal(size=12)
    psi = np.array([1.0, 0.4, 0.2])
    coeffs = psi[:, None, None] * np.eye(1)
    scalar = linear_filter(z, psi)
    vector = vector_linear_filter(z[:, None], coeffs)
    np.testing.assert_allclose(vector[:, 0], scalar, atol=1e-14)


def test_vector_simulation_first_coordinate_decouples():
    # With block-diagonal coefficients whose first block is scalar, the first
    # coordinate reproduces the scalar simulator run at the same seed.
    psi = np.concatenate(([1.0], 0.5 ** np.arange(1, 4)))
    coeffs = np.zeros((4, 2, 2))
    for j, p in enumerate(psi):
        coeffs[j, 0, 0] = p
        coeffs[j, 1, 1] = p if j == 0 else 0.0
    vspec = VectorProcessSpec(coeffs=coeffs, noise=StableParams(1.5))
    sspec = LinearProcessSpec(psi=psi, noise=StableParams(1.5))
    x2 = simulate_vector_linear(vspec, 50, np.random.default_rng(9))
    x1 = simulate_linear(sspec, 50, np.random.default_rng(9))
    np.testing.assert_allclose(x2[:, 0], x1, atol=1e-12)


def test_simulation_reproducible_and_shapes():
    spec = ma_polynomial_spec(0.5)
    a = simulate_linear(spec, 40, np.random.default_rng(3))
    b = simulate_linear(spec, 40, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (40,)
    v = simulate_vector_linear(vma_table_spec(0.3), 17, np.random.default_rng(3))
    assert v.shape == (17, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        LinearProcessSpec(psi=np.array([2.0, 0.5]), noise=StableParams(1.5))
    with pytest.raises(ValueError):
        LinearProcessSpec(psi=np.array([[1.0]]), noise=StableParams(1.5))
    with pytest.raises(ValueError):
        VectorProcessSpec(coeffs=np.zeros((2, 2, 2)), noise=StableParams(1.5))
    bad = np.zeros((2, 2, 3))
    with pytest.raises(ValueError):
        VectorProcessSpec(coeffs=bad, noise=StableParams(1.5))


# --------------------------------------------------------------------------
# transfer functions and autocorrelations

def test_transfer_polynomial_at_zero_sums_coefficients(spec_half):
    value = transfer_polynomial(spec_half, 0.0)
    assert abs(value[0] - np.sum(spec_half.psi)) < 1e-12


def test_normalized_transfer_integrates_to_one(spec_half):
    grid = np.linspace(-np.pi, np.pi, 4097)
    values = normalized_transfer(spec_half, grid)
    integral = np.trapezoid(values, grid) / (2.0 * np.pi)
    assert abs(integral - 1.0) < 1e-10


def test_theoretical_acf_matches_direct_sums(spec_half):
    # Independent recomputation of rho(l) = sum psi_j psi_{j+l} / sum psi_j^2.
    psi = [1.0] + [0.5 ** j / j for j in range(1, 101)]
    denom = sum(p * p for p in psi)
    for lag in (0, 1, 2, 5):
        num = sum(psi[j] * psi[j + lag] for j in range(len(psi) - lag))
        assert abs(theoretical_acf(spec_half, lag) - num / denom) < 1e-12
    assert theoretical_acf(spec_half, 500) == 0.0
    assert theoretical_acf(spec_half, -2) == theoretical_acf(spec_half, 2)


def test_theoretical_acf_short_filter_hand_values():
    spec = LinearProcessSpec(psi=np.array([1.0, 0.5]), noise=StableParams(1.5))
    assert abs(theoretical_acf(spec, 1) - 0.4) < 1e-15
    assert theoretical_acf(spec, 2) == 0.0


def test_transfer_matrix_shapes_and_hermitian_power(spec_half):
    vspec = vma_table_spec(0.3)
    grid = np.linspace(-np.pi, np.pi, 33)
    psi = transfer_matrix(vspec, grid)
    assert psi.shape == (33, 2, 2)
    g = power_transfer_matrix(vspec, grid)
    np.testing.assert_allclose(g, np.conj(np.swapaxes(g, -1, -2)), atol=1e-12)
    eigs = np.linalg.eigvalsh(g)
    assert np.all(eigs > -1e-12)
    (single,) = transfer_matrix(vspec, [0.3])
    np.testing.assert_allclose(single, psi_at(vspec, 0.3), atol=1e-12)


def psi_at(vspec, omega):
    return sum(vspec.coeffs[j] * np.exp(1j * j * omega)
               for j in range(vspec.coeffs.shape[0]))


# --------------------------------------------------------------------------
# serialization

def test_spec_dict_roundtrip_scalar(spec_half):
    data = json.loads(json.dumps({"kind": "ma", "alpha": 1.5, "scale": 2.0,
                                  "psi": spec_half.psi.tolist()}))
    back = spec_from_dict(data)
    np.testing.assert_array_equal(back.psi, spec_half.psi)
    assert back.noise == StableParams(alpha=1.5, scale=2.0)


def test_spec_dict_roundtrip_vector():
    vspec = vma_table_spec(0.3, alpha=1.5)
    data = json.loads(json.dumps({"kind": "vma", "alpha": 1.5,
                                  "coeffs": vspec.coeffs.tolist()}))
    back = spec_from_dict(data)
    np.testing.assert_array_equal(back.coeffs, vspec.coeffs)
    assert back.noise == vspec.noise


def test_spec_from_dict_shorthand_matches_factory():
    spec = spec_from_dict({"kind": "ma", "alpha": 1.5,
                           "psi": {"kind": "exp_over_j", "b": 0.5}})
    np.testing.assert_array_equal(spec.psi, ma_polynomial_spec(0.5).psi)
    vspec = spec_from_dict({"kind": "vma", "alpha": 1.5,
                            "coeffs": {"kind": "table", "b": 0.3}})
    np.testing.assert_array_equal(vspec.coeffs, vma_table_spec(0.3).coeffs)


def test_spec_from_dict_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "ar", "alpha": 1.5, "psi": [1.0]})
    with pytest.raises(ValueError):
        spec_from_dict({"kind": "ma", "alpha": 1.5, "psi": {"kind": "mystery"}})


@pytest.mark.parametrize("data, missing", [
    ({"kind": "ma", "alpha": 1.5}, "an 'ma' process spec has no 'psi' entry"),
    ({"psi": [1.0]}, "process spec has no 'alpha' entry"),
    ({"kind": "ma", "alpha": 1.5, "psi": {"kind": "exp_over_j"}},
     "the psi shorthand has no 'b' entry"),
    ({"kind": "vma", "alpha": 1.5}, "a 'vma' process spec has no 'coeffs' entry"),
    ({"kind": "vma", "alpha": 1.5, "coeffs": {"kind": "table"}},
     "the coeffs shorthand has no 'b' entry"),
])
def test_spec_from_dict_names_a_missing_entry(data, missing):
    with pytest.raises(ValueError, match=f"^{missing}$"):
        spec_from_dict(data)
