import math

import numpy as np
import pytest

from gse import emission
from gse.bosonic_full import full_tier
from gse.bosonic_pert import pert_tier
from gse.emission import (
    MODELS,
    SweepRecord,
    emission_spectrum,
    sweep_columns,
    sweep_record,
    sweep_records,
    total_emission,
)
from gse.errors import ConfigurationError, DegenerateDenominator
from gse.fermionic import chemical_gate, fermionic_rate_arrays
from gse.params import ParamStack, dicke_params, params_for_coupling


def test_chemical_gate_truth_table():
    # out: electron leaves into a lead below -delta; in: lead above delta
    assert chemical_gate(-3.0, 2.4, "out") is True
    assert chemical_gate(-2.0, 2.4, "out") is False
    assert chemical_gate(4.0, 4.5, "in") is True
    assert chemical_gate(5.0, 4.5, "in") is False
    # the marginal case counts as open on both directions
    assert chemical_gate(-2.4, 2.4, "out") is True
    assert chemical_gate(4.5, 4.5, "in") is True
    with pytest.raises(ConfigurationError):
        chemical_gate(0.0, 1.0, "up")


def test_total_emission_branching():
    tot = total_emission((1.0, 2.0), (0.5, 0.25), 1e-2)
    assert tot == (pytest.approx(0.5), pytest.approx(0.5))
    # dark decay competes with cavity loss
    tot = total_emission((1.0, 1.0), (1.0, 1.0), 1e-2, (1e-2, 3e-2))
    assert tot[0] == pytest.approx(0.5)
    assert tot[1] == pytest.approx(0.25)
    with pytest.raises(ConfigurationError):
        total_emission((1.0, 1.0), (1.0, 1.0), 0.0)
    with pytest.raises(ConfigurationError):
        total_emission((-1.0, 1.0), (1.0, 1.0), 1e-2)


def make_record(**kw):
    base = dict(model="pert", detuning=0.0, g_over_omega0=0.05,
                n_electrons=1000, omega_plus=1.05, omega_minus=0.95,
                rate_plus=1e-4, rate_minus=2e-4, weight_plus=0.5,
                weight_minus=0.5, tot_plus=5e-5, tot_minus=1e-4)
    base.update(kw)
    return SweepRecord(**base)


def test_record_derived_quantities():
    r = make_record()
    assert r.flux_plus == pytest.approx(1.05e-4)
    assert r.flux_minus == pytest.approx(1.9e-4)
    assert r.gse_rate == pytest.approx(3e-4)
    assert r.gse_flux == pytest.approx(r.flux_plus + r.flux_minus)
    assert r.tot_rate == pytest.approx(1.5e-4)
    assert r.tot_flux == pytest.approx(1.05 * 5e-5 + 0.95 * 1e-4)
    assert r.tot_rate <= r.gse_rate


def test_record_validation():
    with pytest.raises(ConfigurationError):
        make_record(model="quantum")
    with pytest.raises(ConfigurationError):
        make_record(rate_plus=-1e-9)


@pytest.mark.parametrize("model", MODELS)
def test_sweep_record_resonance(model):
    p = params_for_coupling(1.0, 0.05, 10**6)
    r = sweep_record(p, model)
    expected = 0.05**2 / 8
    assert r.rate_plus == pytest.approx(expected, rel=5 * 0.05)
    assert r.rate_minus == pytest.approx(expected, rel=5 * 0.05)
    assert 0.3 <= r.tot_rate / r.gse_rate <= 1.0
    assert r.flux_plus == r.omega_plus * r.rate_plus
    assert r.tot_rate <= r.gse_rate


def test_sweep_record_label_overrides():
    p = params_for_coupling(1.02, 0.049, 10**6)
    r = sweep_record(p, "full", detuning=0.02, g_over_omega0=0.05)
    assert r.detuning == 0.02
    assert r.g_over_omega0 == 0.05


def test_sweep_record_rejects_unknown_model():
    p = params_for_coupling(1.0, 0.05, 100)
    with pytest.raises(ConfigurationError):
        sweep_record(p, "bogus")


def test_zero_coupling_records():
    # the photon fills the upper branch only for a blue-detuned cavity; on
    # exact resonance every tier puts it in the lower one
    for detuning in (-0.2, 0.0, 0.2):
        p = params_for_coupling(1.0 + detuning, 0.0, 100)
        records = [sweep_record(p, model) for model in MODELS]
        photon_up = 1.0 if detuning > 0 else 0.0
        for r in records:
            assert r.gse_rate == 0.0
            assert r.tot_rate == 0.0
            assert r.weight_plus == pytest.approx(photon_up, abs=1e-12)
            assert r.weight_minus == pytest.approx(1.0 - photon_up, abs=1e-12)


@pytest.mark.parametrize("tier", [pert_tier, full_tier])
def test_tier_takes_one_point_or_a_stack(tier):
    for p in (params_for_coupling(1.0, 0.05, 100),
              params_for_coupling(1.1, 0.0, 10**6)):
        single = tier(p)
        stacked = tier(ParamStack.of([p]))
        assert len(single) == len(stacked) == 6
        for a, b in zip(single, stacked):
            assert np.asarray(a).reshape(1).tobytes() == b.tobytes()


@pytest.mark.parametrize("tier", [pert_tier, full_tier, fermionic_rate_arrays])
def test_every_tier_gives_one_point_the_value_of_its_stack(tier):
    # one SystemParams gives scalars, bit for bit the one-point stack's
    for p in (params_for_coupling(1.1, 0.05, 100),
              params_for_coupling(0.9, 0.0, 10**6),
              params_for_coupling(1.0, 0.05, 100),
              params_for_coupling(1.1, 0.0, 10**6)):
        single, stacked = tier(p), tier(ParamStack.of([p]))
        assert len(single) == len(stacked) >= 6  # the contract's columns
        for a, b in zip(single, stacked):
            assert np.ndim(a) == 0 and b.shape == (1,)
            assert np.asarray(a).tobytes() == b.tobytes()


@pytest.mark.parametrize("model", MODELS)
def test_empty_stack_gives_no_records(model):
    assert sweep_records([], model) == []
    columns = sweep_columns(ParamStack.of([]), model)
    assert all(column.shape == (0,) for column in columns.values())


@pytest.mark.parametrize("model, name", [("pert", "pert_tier"),
                                         ("full", "full_tier"),
                                         ("fermionic", "fermionic_rate_arrays")])
def test_sweep_columns_calls_the_tier_once(monkeypatch, model, name):
    tier = getattr(emission, name)
    calls = []

    def counting(points):
        calls.append(len(points))
        return tier(points)

    monkeypatch.setattr(emission, name, counting)
    points = ParamStack.of([params_for_coupling(1.0 + d, 0.05, 100)
                            for d in (-0.1, 0.0, 0.1)])
    sweep_columns(points, model)
    assert calls == [3]
    sweep_records(points.params(), model)
    assert calls == [3, 3]


def test_spectrum_integrates_to_total_rate():
    p = params_for_coupling(1.0, 0.05, 10**6)
    r = sweep_record(p, "full")
    grid = np.linspace(r.omega_minus - 400 * p.gamma_cav,
                       r.omega_plus + 400 * p.gamma_cav, 400001)
    spec = emission_spectrum(r, p.gamma_cav, grid)
    integral = float(np.trapezoid(spec, grid))
    assert integral == pytest.approx(r.tot_rate, rel=5e-3)
    # peaks sit at the polariton frequencies
    for center in (r.omega_minus, r.omega_plus):
        k = int(np.argmin(np.abs(grid - center)))
        assert spec[k] >= 0.9 * float(spec.max())


@pytest.mark.parametrize("width", [0.0, 1e155])
def test_spectrum_rejects_bad_width(width):
    r = make_record()
    with pytest.raises(ConfigurationError):
        emission_spectrum(r, width, np.linspace(0.9, 1.1, 10))


def test_branch_monotonicity_in_detuning():
    # upper branch rate grows, lower branch shrinks across resonance
    for model in MODELS:
        rates = [sweep_record(params_for_coupling(1.0 + d, 0.1, 10**6), model)
                 for d in (-0.3, 0.0, 0.3)]
        plus = [r.rate_plus for r in rates]
        minus = [r.rate_minus for r in rates]
        assert plus[0] < plus[1] < plus[2]
        assert minus[0] > minus[1] > minus[2]


_FLOAT_FIELDS = ("detuning", "g_over_omega0", "omega_plus", "omega_minus",
                 "rate_plus", "rate_minus", "weight_plus", "weight_minus",
                 "tot_plus", "tot_minus")


@pytest.mark.parametrize("model", MODELS)
def test_records_carry_builtin_floats(model):
    points = [params_for_coupling(1.1, 0.05, n) for n in (10, 10**6)]
    for record in [sweep_record(points[0], model),
                   *sweep_records(points, model)]:
        for name in _FLOAT_FIELDS:
            assert type(getattr(record, name)) is float, name
        assert type(record.n_electrons) is int


def test_mixed_batch_equals_single_points():
    # N = 2 and 3 clamp the fermionic subspaces, N >= 4 does not: one
    # batch holds every group and must reproduce each point exactly
    points = [params_for_coupling(1.0 + det, 0.02 * math.sqrt(n), n)
              for det in (-0.5, 0.0, 0.5) for n in [*range(2, 13), 100]]
    for model in MODELS:
        assert sweep_records(points, model) == [sweep_record(p, model)
                                                for p in points]


def test_batch_rejects_degenerate_denominator():
    # omega_c = 1e-10 puts the two-photon target 2e-10 above the ground
    degenerate = params_for_coupling(1e-10, 1e-6, 100)
    with pytest.raises(DegenerateDenominator):
        sweep_record(degenerate, "fermionic")
    with pytest.raises(DegenerateDenominator):
        sweep_records([params_for_coupling(1.0, 0.05, 100), degenerate],
                      "fermionic")


@pytest.mark.parametrize("model, omega_c, g_n, overrides", [
    ("full", 1.0 + 1e300, 1e-150, {}),
    ("fermionic", 1.0, 0.05, {"omega_2_ref": 1e308, "mu_r": 1e307}),
])
def test_out_of_range_point_is_a_configuration_error(model, omega_c, g_n,
                                                     overrides):
    # the tier overflows on the way; the finiteness check reports it, and
    # no RuntimeWarning escapes first (pytest makes warnings errors)
    params = dicke_params(params_for_coupling(omega_c, g_n, 10**6,
                                              **overrides))
    with pytest.raises(ConfigurationError, match=f"^model {model} gives "
                                                 "non-finite values"):
        sweep_record(params, model)
