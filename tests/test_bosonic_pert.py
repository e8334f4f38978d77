import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gse.bosonic_pert import (
    dbetas_dg,
    double_polariton_rate_pert,
    jc_basis,
    perturbative_betas,
    photon_weight_pert,
    single_polariton_rate_pert,
)
from gse.errors import ZeroCoupling
from gse.params import params_for_coupling

stable_points = st.tuples(
    st.floats(0.5, 1.5),      # omega_c
    st.floats(1e-4, 0.3),     # g
).filter(lambda t: t[1] < 0.45 * math.sqrt(t[0]))


def test_zero_coupling_guard():
    with pytest.raises(ZeroCoupling):
        jc_basis(1.0, 1.0, 0.0)
    basis = jc_basis(1.0, 1.2, 0.0, allow_zero=True)
    assert basis.omega_plus == pytest.approx(1.2)
    assert basis.omega_minus == pytest.approx(1.0)


def test_resonant_basis():
    b = jc_basis(1.0, 1.0, 0.05)
    assert b.omega_plus == pytest.approx(1.05)
    assert b.omega_minus == pytest.approx(0.95)
    for a in (b.alpha_a_plus, b.alpha_b_plus, b.alpha_b_minus):
        assert a == pytest.approx(1 / math.sqrt(2))
    assert b.alpha_a_minus == pytest.approx(-1 / math.sqrt(2))
    assert b.x == pytest.approx(0.0)


@settings(max_examples=200, deadline=None)
@given(stable_points)
def test_basis_identities(point):
    omega_c, g = point
    b = jc_basis(1.0, omega_c, g)
    assert b.alpha_a_plus**2 + b.alpha_b_plus**2 == pytest.approx(1.0, abs=1e-12)
    assert b.alpha_a_minus**2 + b.alpha_b_minus**2 == pytest.approx(1.0, abs=1e-12)
    det = b.alpha_a_minus * b.alpha_b_plus - b.alpha_b_minus * b.alpha_a_plus
    assert det == pytest.approx(-1.0, abs=1e-12)
    dot = (b.alpha_a_plus * b.alpha_a_minus + b.alpha_b_plus * b.alpha_b_minus)
    assert dot == pytest.approx(0.0, abs=1e-12)
    # branch frequencies bracket the bare ones
    assert b.omega_plus >= max(1.0, omega_c) - 1e-12
    assert b.omega_minus <= min(1.0, omega_c) + 1e-12


def test_frozen_betas():
    b = jc_basis(1.0, 1.0, 0.05)
    betas = perturbative_betas(b, 0.05)
    assert betas.beta_pp == pytest.approx(0.016835875742536848, rel=1e-12)
    assert betas.beta_mm == pytest.approx(-0.018608073189119678, rel=1e-12)
    assert betas.beta_pm == pytest.approx(0.0, abs=1e-15)


def test_frozen_single_rates():
    b = jc_basis(1.0, 1.0, 0.05)
    rates = single_polariton_rate_pert(b, perturbative_betas(b, 0.05))
    assert rates[0] == pytest.approx(0.00028344671201814076, rel=1e-12)
    assert rates[1] == pytest.approx(0.00034626038781163457, rel=1e-12)


@pytest.mark.parametrize("g", [1e-3, 1e-2, 0.05])
def test_resonance_closed_form(g):
    # on resonance the branch rates reduce to g^2/(8 (1 +- g)^2)
    b = jc_basis(1.0, 1.0, g)
    rate_p, rate_m = single_polariton_rate_pert(b, perturbative_betas(b, g))
    assert rate_p == pytest.approx(g**2 / (8 * (1 + g) ** 2), rel=1e-10)
    assert rate_m == pytest.approx(g**2 / (8 * (1 - g) ** 2), rel=1e-10)


def test_large_beta_warns():
    b = jc_basis(1.0, 0.09, 0.2)  # omega_minus ~ 0.05 -> beta_mm > 1
    with pytest.warns(UserWarning):
        perturbative_betas(b, 0.2)


@settings(max_examples=100, deadline=None)
@given(stable_points)
@example(point=(1.0001125390035739, 0.0001))
def test_derivatives_match_finite_difference(point):
    omega_c, g = point
    h = 1e-3 * g  # a step fixed in absolute terms swamps the smallest g
    analytic = dbetas_dg(1.0, omega_c, g)
    for i, field in enumerate(("beta_pp", "beta_mm", "beta_pm")):
        up = getattr(perturbative_betas(jc_basis(1.0, omega_c, g + h), g + h), field)
        dn = getattr(perturbative_betas(jc_basis(1.0, omega_c, g - h), g - h), field)
        fd = (up - dn) / (2 * h)
        assert analytic[i] == pytest.approx(fd, rel=5e-5, abs=1e-7)


def test_double_rate_scales_inversely_with_n():
    pairs = ("++", "--", "+-")
    a = params_for_coupling(0.9, 0.05, 1000)
    b = params_for_coupling(0.9, 0.05, 4000)
    for pair in pairs:
        ra = double_polariton_rate_pert(a, pair)
        rb = double_polariton_rate_pert(b, pair)
        assert ra == pytest.approx(4 * rb, rel=1e-9)


def test_double_rate_positive_off_resonance():
    p = params_for_coupling(0.9, 0.05, 1000)
    total = sum(double_polariton_rate_pert(p, pair) for pair in ("++", "--", "+-"))
    assert total > 0.0


def test_photon_weights():
    b = jc_basis(1.0, 1.0, 0.05)
    betas = perturbative_betas(b, 0.05)
    w_p = photon_weight_pert(b, betas, "+")
    w_m = photon_weight_pert(b, betas, "-")
    assert w_p == pytest.approx(0.5119756235827665, rel=1e-10)
    assert w_m == pytest.approx(0.4869286703601106, rel=1e-10)
    # far red-detuned cavity: lower branch is almost all photon
    b2 = jc_basis(1.0, 0.5, 0.02)
    betas2 = perturbative_betas(b2, 0.02)
    assert photon_weight_pert(b2, betas2, "-") > 0.99
    assert photon_weight_pert(b2, betas2, "+") < 0.01


@settings(max_examples=100, deadline=None)
@given(stable_points)
def test_weights_bounded(point):
    omega_c, g = point
    b = jc_basis(1.0, omega_c, g)
    betas = perturbative_betas(b, g)
    for branch in "+-":
        w = photon_weight_pert(b, betas, branch)
        assert 0.0 <= w <= 1.05  # small counter-rotating overshoot allowed
