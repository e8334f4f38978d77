import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gse.bosonic_full import (
    ETA,
    double_polariton_rate_full,
    dp_matrix,
    hbar_kernel,
    hopfield_modes,
    kernel_residual,
    lambda_pm,
    photon_weight_full,
    pseudo_norm,
    single_polariton_rate_full,
)
from gse.bosonic_pert import jc_basis, perturbative_betas, single_polariton_rate_pert
from gse.errors import ConfigurationError, Unstable
from gse.oracle import compare_with_oracle
from gse.params import collective_coupling, params_for_coupling

stable_points = st.tuples(
    st.floats(0.5, 1.5),
    st.floats(1e-4, 0.3),
).filter(lambda t: 4 * t[1] ** 2 < 0.96 * t[0])


def test_frozen_eigenfrequencies():
    lp, lm = lambda_pm(1.0, 1.0, 0.05)
    assert lp == pytest.approx(1.0488088481701516, rel=1e-14)
    assert lm == pytest.approx(0.9486832980505138, rel=1e-14)


def test_resonant_eigenfrequencies_closed_form():
    # at resonance lambda_pm = sqrt(omega0 (omega0 +- 2g))
    for g in (1e-3, 0.05, 0.2):
        lp, lm = lambda_pm(1.0, 1.0, g)
        assert lp == pytest.approx(math.sqrt(1 + 2 * g), rel=1e-13)
        assert lm == pytest.approx(math.sqrt(1 - 2 * g), rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(stable_points)
def test_lambda_matches_kernel_eigenvalues(point):
    omega_c, g = point
    lp, lm = lambda_pm(1.0, omega_c, g)
    eig = np.linalg.eigvals(hbar_kernel(1.0, omega_c, g))
    positive = np.sort(eig.real[eig.real > 0])
    assert abs(positive[1] - lp) <= 1e-10
    assert abs(positive[0] - lm) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(stable_points)
def test_transformation_is_symplectic(point):
    omega_c, g = point
    modes = hopfield_modes(1.0, omega_c, g)
    p = modes.p_matrix
    assert np.max(np.abs(p @ ETA @ p.T - ETA)) <= 1e-10
    # eta P^T eta really inverts P
    p_inv = ETA @ p.T @ ETA
    assert np.max(np.abs(p_inv @ p - np.eye(4))) <= 1e-10


def test_transformation_has_unit_determinant():
    # P eta P^T = eta forces |det P| = 1, so the double-polariton rate
    # never meets a singular P; checked over the criterion-09 grid.
    worst = 0.0
    for omega_c in np.linspace(0.55, 1.45, 13):
        for frac in np.linspace(0.02, 0.95, 13):
            p = params_for_coupling(omega_c, 0.5 * math.sqrt(omega_c) * frac,
                                    10**6)
            modes = hopfield_modes(p.omega_0, p.omega_c, collective_coupling(p))
            worst = max(worst, abs(abs(np.linalg.det(modes.p_matrix)) - 1.0))
    assert worst <= 1e-12


@settings(max_examples=100, deadline=None)
@given(stable_points)
def test_eigenvector_residuals(point):
    omega_c, g = point
    modes = hopfield_modes(1.0, omega_c, g)
    assert kernel_residual(1.0, omega_c, g, modes) <= 1e-10


def test_unstable_raises():
    with pytest.raises(Unstable):
        hopfield_modes(1.0, 1.0, 0.5)
    with pytest.raises(Unstable):
        lambda_pm(1.0, 0.64, 0.41)  # 4g^2 = 0.672 > 0.64


def test_zero_coupling_decoupled_modes():
    modes = hopfield_modes(1.0, 1.2, 0.0)
    assert modes.lambda_plus == pytest.approx(1.2)
    assert modes.lambda_minus == pytest.approx(1.0)
    np.testing.assert_allclose(modes.v_plus, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(modes.v_minus, [0.0, 0.0, 1.0, 0.0], atol=1e-14)
    assert photon_weight_full(modes, "+") == pytest.approx(1.0)
    assert photon_weight_full(modes, "-") == pytest.approx(0.0)


def test_pseudo_norm_signs():
    modes = hopfield_modes(1.0, 0.8, 0.1)
    assert pseudo_norm(modes.v_plus) == pytest.approx(1.0, abs=1e-12)
    assert pseudo_norm(modes.v_minus) == pytest.approx(1.0, abs=1e-12)


def test_frozen_single_rates_and_weights():
    modes = hopfield_modes(1.0, 1.0, 0.05)
    assert modes.p_matrix[1, 2] ** 2 == pytest.approx(0.00028392967696798263,
                                                      rel=1e-12)
    assert modes.p_matrix[3, 2] ** 2 == pytest.approx(0.0003469814299966969,
                                                      rel=1e-12)
    assert photon_weight_full(modes, "+") == pytest.approx(0.5244044240850754,
                                                           rel=1e-12)
    assert photon_weight_full(modes, "-") == pytest.approx(0.47434164902525644,
                                                           rel=1e-12)


def test_single_rate_uses_reduced_coupling():
    # the emitting transition leaves N-1 electrons behind
    params = params_for_coupling(1.0, 0.05, 50)
    g_red = 0.05 * math.sqrt(49 / 50)
    modes = hopfield_modes(1.0, 1.0, g_red)
    rate_p, rate_m = single_polariton_rate_full(params)
    assert rate_p == pytest.approx(float(modes.p_matrix[1, 2] ** 2), rel=1e-12)
    assert rate_m == pytest.approx(float(modes.p_matrix[3, 2] ** 2), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(stable_points)
def test_small_g_reduces_to_perturbative(point):
    omega_c, g = point
    if g > 0.1:
        return
    modes = hopfield_modes(1.0, omega_c, g)
    basis = jc_basis(1.0, omega_c, g)
    pert = single_polariton_rate_pert(basis, perturbative_betas(basis, g))
    full = (float(modes.p_matrix[1, 2] ** 2), float(modes.p_matrix[3, 2] ** 2))
    for a, b in zip(pert, full):
        if max(a, b) == 0.0:
            continue
        assert abs(a - b) / max(a, b) <= 6 * g


@pytest.mark.parametrize("point,expected", [
    ((1.0, 0.01), 6.3781707197663916e-06),
    ((1.0, 0.05), 0.00017399704284902577),
    ((0.9, 0.02), 2.816608178672163e-05),
])
def test_frozen_double_rate_sums(point, expected):
    omega_c, g = point
    params = params_for_coupling(omega_c, g, 1000)
    total = sum(double_polariton_rate_full(params, pair)
                for pair in ("++", "--", "+-"))
    assert total * 1000 == pytest.approx(expected, rel=1e-11)


def test_double_rate_needs_two_electrons():
    params = params_for_coupling(1.0, 0.01, 1)
    with pytest.raises(ConfigurationError):
        double_polariton_rate_full(params, "++")
    with pytest.raises(ValueError):
        double_polariton_rate_full(params.replace(n_electrons=2), "+a")


def test_double_rate_scales_inversely_with_n():
    a = params_for_coupling(0.9, 0.05, 1000)
    b = params_for_coupling(0.9, 0.05, 4000)
    for pair in ("++", "--", "+-"):
        assert double_polariton_rate_full(a, pair) == pytest.approx(
            4 * double_polariton_rate_full(b, pair), rel=1e-9)


@pytest.mark.parametrize("point", [(1.0, 0.05), (0.8, 0.1), (1.3, 0.2)])
def test_dp_matrix_against_finite_difference(point):
    omega_c, g = point
    analytic = dp_matrix(1.0, omega_c, g, derivative="analytic")
    fd = dp_matrix(1.0, omega_c, g, derivative="fd")
    assert np.max(np.abs(analytic - fd)) <= 1e-6


def test_analytic_and_fd_double_rates_agree():
    params = params_for_coupling(0.9, 0.05, 1000)
    for pair in ("++", "--", "+-"):
        a = double_polariton_rate_full(params, pair, derivative="analytic")
        b = double_polariton_rate_full(params, pair, derivative="fd")
        assert a == pytest.approx(b, rel=1e-4, abs=1e-18)


@pytest.mark.parametrize("g", [0.01, 0.05, 0.2])
def test_double_rates_match_exact_diagonalization(g):
    # '+-' is left out: there the rate is 39 to 2.8e5 times the exact
    # strength, the element ROADMAP direction 9 leaves open
    params = params_for_coupling(1.1, g, 8)
    exact = {row.label: row.strength_exact
             for row in compare_with_oracle(params, 20).rows}
    for pair in ("--", "++"):
        ratio = double_polariton_rate_full(params, pair) / exact[pair]
        assert 0.5 < ratio < 2.0, (pair, ratio)
