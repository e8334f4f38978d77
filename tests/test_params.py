import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gse.bosonic_full import lambda_pm
from gse.emission import MODELS, sweep_record
from gse.errors import ConfigurationError, GseError, Unstable
from gse.params import (
    MAX_N,
    SystemParams,
    collective_coupling,
    dicke_params,
    params_for_coupling,
    renormalize_diamagnetic,
)


def make(**kw):
    base = dict(omega_c=1.0, chi=1e-3, n_electrons=100, n_sites_total=200)
    base.update(kw)
    return SystemParams(**base)


def test_defaults_are_valid():
    p = make()
    assert p.omega_0 == 1.0
    assert p.detuning == 0.0
    assert p.omega_1 == pytest.approx(4.0)


def test_detuning_property():
    assert make(omega_c=0.8).detuning == pytest.approx(-0.2)
    assert make(omega_c=1.3).detuning == pytest.approx(0.3)


@pytest.mark.parametrize("kw", [
    dict(omega_c=-1.0),
    dict(omega_c=0.0),
    dict(chi=-1e-3),
    dict(n_electrons=0),
    dict(n_electrons=300),          # exceeds n_sites_total
    dict(gamma_dark_minus=-1e-3),   # dark conversion rates are >= 0
    dict(gamma_el=0.0),
    dict(gamma_cav=5e-4),           # below 10*gamma_el
    dict(mu_l=5.0),                 # violates mu_l < mu_r
    dict(omega_2_ref=4.0),          # violates mu_r < omega_2_ref
    dict(chi=0.0, n_electrons=MAX_N + 1,  # beyond float64 integers
         n_sites_total=MAX_N + 2),
])
def test_validation_rejects(kw):
    with pytest.raises(ConfigurationError):
        make(**kw)


def test_electron_number_limit_is_inclusive():
    # 2**53 is the largest N a float64 column of ParamStack holds exactly
    assert float(MAX_N) == MAX_N and float(MAX_N + 1) != MAX_N + 1
    p = make(chi=0.0, n_electrons=MAX_N, n_sites_total=MAX_N)
    assert p.n_electrons == MAX_N


def test_instability_raises_with_parameters():
    with pytest.raises(Unstable) as exc:
        make(chi=0.06)  # g_N = 0.6 >= 0.5
    assert exc.value.params["n_electrons"] == 100


def test_unstable_threshold_scales_with_omega_c():
    make(omega_c=2.0, chi=0.06)  # bound sqrt(2)/2 ~ 0.707, fine
    with pytest.raises(Unstable):
        make(omega_c=0.25, chi=0.03)  # bound 0.25, g_N = 0.3


@pytest.mark.parametrize("omega_c, g", [
    (0.7015463661686019, 0.4187918236333542),
    (1.1742365971831072, 0.5418109903792805),
    (1.6830850267032698, 0.6486688343645141),
    (1.0, 0.5),
    (1.0, math.nextafter(0.5, 0.0)),
])
def test_params_and_full_tier_share_one_stability_bound(omega_c, g):
    # rounding at the bound: the first three points satisfy 4 g^2 <
    # omega_0 omega_c in floating point but not g < sqrt(omega_0 omega_c)/2
    try:
        make(omega_c=omega_c, chi=g, n_electrons=1, n_sites_total=2)
        params_ok = True
    except Unstable:
        params_ok = False
    try:
        lambda_pm(1.0, omega_c, g)
        tier_ok = True
    except Unstable:
        tier_ok = False
    assert params_ok == tier_ok


def test_collective_coupling():
    p = make(chi=2e-3, n_electrons=400, n_sites_total=800)
    assert collective_coupling(p) == pytest.approx(0.04, rel=1e-15)


def test_params_for_coupling_roundtrip():
    p = params_for_coupling(0.9, 0.05, 12345)
    assert collective_coupling(p) == pytest.approx(0.05, rel=1e-12)
    assert p.n_sites_total == 2 * 12345


def test_replace_keeps_validation():
    p = make()
    with pytest.raises(Unstable):
        p.replace(chi=0.08)


def test_renormalization_zero_coupling_is_identity():
    ren = renormalize_diamagnetic(make(chi=0.0))
    assert ren.lambda_squeeze == 0.0
    assert ren.omega_c_tilde == 1.0
    assert ren.e0_shift == 0.0


def test_renormalization_direction():
    # the A^2 term stiffens the cavity and softens the coupling
    p = make(chi=4e-3)
    ren = renormalize_diamagnetic(p)
    assert ren.omega_c_tilde > p.omega_c
    assert ren.chi_tilde < p.chi
    assert ren.e0_shift < 0.0


def test_renormalization_consistency():
    # omega_c_tilde * exp(-4 lambda) recovers omega_c exp(-2 lambda):
    # the squeeze acts once on the frequency, twice on the quadrature
    p = make(chi=4e-3)
    ren = renormalize_diamagnetic(p)
    lam = ren.lambda_squeeze
    assert ren.omega_c_tilde == pytest.approx(p.omega_c * math.exp(2 * lam))
    assert ren.chi_tilde == pytest.approx(p.chi * math.exp(-lam))


def test_dicke_params_raw_passthrough():
    p = make(chi=4e-3)
    assert dicke_params(p, raw=True) is p
    tilde = dicke_params(p)
    assert tilde.omega_c > p.omega_c
    assert tilde.chi < p.chi
    assert tilde.n_electrons == p.n_electrons


@settings(max_examples=100, deadline=None)
@given(
    omega_c=st.floats(0.5, 1.5),
    g_n=st.floats(0.0, 0.3),
    n=st.integers(2, 10**7),
)
def test_valid_points_construct(omega_c, g_n, n):
    if g_n >= 0.98 * math.sqrt(omega_c) / 2:
        return
    p = params_for_coupling(omega_c, g_n, n)
    assert collective_coupling(p) == pytest.approx(g_n, rel=1e-9, abs=1e-12)
    # squeezing never destabilizes a stable point
    dicke_params(p)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [
    "omega_c", "chi", "omega_0", "gamma_el", "gamma_cav", "gamma_dark_plus",
    "gamma_dark_minus", "mu_l", "mu_r", "omega_2_ref"])
def test_non_finite_fields_rejected(field, value):
    with pytest.raises(ConfigurationError, match="finite"):
        make(**{field: value})


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


@pytest.mark.filterwarnings("ignore:counter-rotating amplitude")
@settings(max_examples=150, deadline=None)
@given(
    omega_c=st.one_of(st.floats(-0.5, 3.0), _SPECIAL),
    g_n=st.one_of(st.floats(-0.1, 1.0), _SPECIAL),
    n=st.integers(1, 10**9),
    gamma_cav=st.one_of(st.floats(1e-4, 1.0), _SPECIAL),
    gamma_dark=st.one_of(st.floats(0.0, 1.0), _SPECIAL),
    raw=st.booleans(),
)
# a subnormal coupling: Delta / g overflows to the intended inf in `pert`
@example(omega_c=2.0, g_n=2.225073858507e-311, n=1, gamma_cav=1.0,
         gamma_dark=0.0, raw=False)
def test_every_input_gives_finite_records_or_gse_error(omega_c, g_n, n,
                                                       gamma_cav, gamma_dark,
                                                       raw):
    try:
        params = dicke_params(params_for_coupling(
            omega_c, g_n, n, gamma_cav=gamma_cav, gamma_dark_plus=gamma_dark),
            raw=raw)
        records = [sweep_record(params, model) for model in MODELS]
    except GseError:
        return
    for record in records:
        for name in ("omega_plus", "omega_minus", "rate_plus", "rate_minus",
                     "weight_plus", "weight_minus", "tot_plus", "tot_minus"):
            value = getattr(record, name)
            assert math.isfinite(value) and value >= 0.0, (name, value)
        assert math.isfinite(record.detuning)


def test_overflowing_full_modes_are_a_configuration_error():
    # the mode vectors overflow to inf here, and their photon weight is
    # inf - inf; the tier reports it, without a RuntimeWarning
    params = params_for_coupling(2.0205090485142492e-162,
                                 2.0205090485142492e-162, 5_100_802)
    with pytest.raises(ConfigurationError, match="non-finite"):
        sweep_record(params, "full")
