import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gse.errors import (
    ConfigurationError,
    InvalidQuantumNumbers,
    Unstable,
    UnsupportedDoubleOccupancy,
)
from gse.fermionic import (
    _eigenbases,
    _kernels,
    clebsch_coeffs,
    dressed_ground_state,
    dressed_sector_states,
    dressed_subspace,
    fermionic_rate_arrays,
    gse_rate_closed_form,
    gse_rate_pipeline,
    sector_base_energy,
    theta_plus,
    transition_rate_fermionic,
    transition_strength,
)
from gse.params import ParamStack, collective_coupling, params_for_coupling


# ------------------------------------------------------- addition amplitudes

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 40))
def test_clebsch_unitarity(two_j, m_idx):
    j = two_j / 2
    m = -j + m_idx / 2
    if m > j or (m_idx % 2) != 0 and False:
        return
    if abs(m) > j:
        return
    for branch in "+-":
        if branch == "-" and two_j == 0:
            continue
        c, d = clebsch_coeffs(j, m, branch)
        assert c * c + d * d == pytest.approx(1.0, abs=1e-12)


def test_clebsch_values():
    # J = 1, M = 0, branch j2 = J - 1/2: C = sqrt((J-M)/2J), D = sqrt((J+M)/2J)
    c, d = clebsch_coeffs(1.0, 0.0, "-")
    assert c == pytest.approx(math.sqrt(0.5))
    assert d == pytest.approx(math.sqrt(0.5))
    # branch j2 = J + 1/2 carries the minus sign on D
    c, d = clebsch_coeffs(1.0, 0.0, "+")
    assert c == pytest.approx(math.sqrt(1.0 / 4.0 * 2))  # sqrt((J+M+1)/(2J+2))
    assert d == pytest.approx(-math.sqrt(0.5))


# ---------------------------------------------------------------- TC kernels

def test_kernel_dimension_clamps():
    p = params_for_coupling(1.0, 0.05, 6)
    # matter excitations cannot exceed 2j
    assert len(dressed_sector_states(p, 2, 1.0, 5)) == 3
    assert len(dressed_sector_states(p, 6, 3.0, 2)) == 3


@pytest.mark.parametrize("j, n_exc", [(1.7, 1), (-0.5, 1), (1.0, -1)])
def test_sector_states_reject_invalid_quantum_numbers(j, n_exc):
    p = params_for_coupling(1.0, 0.05, 6)
    with pytest.raises(InvalidQuantumNumbers):
        dressed_sector_states(p, 2, j, n_exc)


def test_kernel_symmetric_and_ordered():
    p = params_for_coupling(1.0, 0.1, 4)
    kern = _kernels(p, 2, 4, 4, sector_base_energy(p, 4, 2.0))
    assert np.max(np.abs(kern - kern.T)) == 0.0
    energies, _ = _eigenbases(kern)
    assert np.all(np.diff(energies) > 0)


def test_theta_plus():
    assert theta_plus(1.0, 1.0, 0.05) == pytest.approx(math.pi / 4)
    th = theta_plus(1.0, 0.8, 0.05)
    delta = 1.0 - 0.8
    assert math.tan(th) == pytest.approx(
        (-delta + math.hypot(2 * 0.05, delta)) / (2 * 0.05))
    assert 0 < theta_plus(1.0, 2.0, 0.01) < math.pi / 2


# ------------------------------------------------------------- dressed states

def test_ground_state_dressing_structure():
    p = params_for_coupling(1.0, 0.05, 100)
    g = dressed_ground_state(p)
    assert g.label == "G"
    assert g.u[(0, 0)] == 1.0
    # two-excitation admixture from the counter-rotating terms only
    assert all(n in (0, 2) for n, _ in g.u)
    two = [v for (n, _), v in g.u.items() if n == 2]
    assert two and max(abs(v) for v in two) < 0.05


def test_sector_state_labels_and_order():
    p = params_for_coupling(1.0, 0.05, 10)
    singles = dressed_sector_states(p, 9, 4.5, 1)
    assert [s.label for s in singles] == ["-", "+"]
    assert singles[0].energy < singles[1].energy
    doubles = dressed_sector_states(p, 9, 4.5, 2)
    assert [s.label for s in doubles] == ["--", "+-", "++"]
    energies = [s.energy for s in doubles]
    assert energies == sorted(energies)


def test_single_electron_final_sector_clamps_doubles():
    p = params_for_coupling(1.0, 0.05, 2)
    doubles = dressed_sector_states(p, 1, 0.5, 2)
    assert [s.label for s in doubles] == ["--", "+-"]


# ------------------------------------------------------------------- gating

def test_dark_rate_at_zero_coupling_counts_electrons():
    for n in (2, 5, 17):
        p = params_for_coupling(1.0, 0.0, n)
        ground = dressed_ground_state(p)
        final = dressed_sector_states(p, n - 1, (n - 1) / 2, 0)[0]
        rate = sum(transition_rate_fermionic(ground, final, lead, "out", p)
                   for lead in "LR")
        assert rate == pytest.approx(n, abs=1e-12)


def test_extraction_gated_to_left_lead():
    p = params_for_coupling(1.0, 0.05, 10)
    ground = dressed_ground_state(p)
    minus = dressed_sector_states(p, 9, 4.5, 1)[0]
    assert transition_rate_fermionic(ground, minus, "L", "out", p) > 0.0
    assert transition_rate_fermionic(ground, minus, "R", "out", p) == 0.0


def test_injection_into_excited_sectors_closed():
    p = params_for_coupling(1.0, 0.05, 10)
    ground = dressed_ground_state(p)
    # symmetric ground of the larger sector: open, via the right lead only
    bigger = dressed_sector_states(p, 11, 5.5, 0)[0]
    assert transition_rate_fermionic(ground, bigger, "R", "in", p) > 0.0
    assert transition_rate_fermionic(ground, bigger, "L", "in", p) == 0.0
    # polariton-dressed and spin-lowered sectors: both leads exactly closed
    for state in (*dressed_sector_states(p, 11, 5.5, 1),
                  dressed_sector_states(p, 11, 4.5, 0)[0]):
        for lead in "LR":
            assert transition_rate_fermionic(ground, state, lead, "in", p) == 0.0


def test_direction_number_mismatch_rejected():
    p = params_for_coupling(1.0, 0.05, 10)
    ground = dressed_ground_state(p)
    smaller = dressed_sector_states(p, 9, 4.5, 0)[0]
    bigger = dressed_sector_states(p, 11, 5.5, 0)[0]
    with pytest.raises(UnsupportedDoubleOccupancy):
        transition_rate_fermionic(ground, smaller, "L", "in", p)
    with pytest.raises(UnsupportedDoubleOccupancy):
        transition_rate_fermionic(ground, bigger, "L", "out", p)
    with pytest.raises(ConfigurationError):
        transition_rate_fermionic(ground, smaller, "X", "out", p)
    with pytest.raises(ConfigurationError):
        transition_rate_fermionic(ground, smaller, "L", "sideways", p)


def test_spin_change_bounded():
    p = params_for_coupling(1.0, 0.05, 10)
    ground = dressed_ground_state(p)
    far = dressed_sector_states(p, 9, 3.5, 0)[0]  # j drops by a full unit
    with pytest.raises(InvalidQuantumNumbers):
        transition_rate_fermionic(ground, far, "L", "out", p)


# ------------------------------------------------------------------ pipeline

def test_frozen_closed_form_values():
    cases = {
        (1.0, 0.1): (0.0015432098765432102, 0.001033057851239669),
        (1.0, 0.05): (0.00034626038781163446, 0.00028344671201814054),
        (0.9, 0.01): (2.749232707666259e-05, 2.174314133837758e-07),
        (1.3, 0.08): (0.00012523044787530378, 0.0011044198543566739),
    }
    for (omega_c, g), (minus, plus) in cases.items():
        p = params_for_coupling(omega_c, g, 10**6)
        assert gse_rate_closed_form(p, "-") == pytest.approx(minus, rel=1e-13)
        assert gse_rate_closed_form(p, "+") == pytest.approx(plus, rel=1e-13)


def test_closed_form_resonance_matches_jc_expression():
    for g in (1e-3, 1e-2, 0.1):
        p = params_for_coupling(1.0, g, 10**6)
        assert gse_rate_closed_form(p, "-") == pytest.approx(
            g**2 / (8 * (1 - g) ** 2), rel=1e-12)
        assert gse_rate_closed_form(p, "+") == pytest.approx(
            g**2 / (8 * (1 + g) ** 2), rel=1e-12)


def test_closed_form_splits_into_total_and_upper_share():
    # the ground for acceptance criterion 05: the upper share rises with
    # omega_c across the stable region while the total falls
    for omega_c in np.linspace(0.55, 1.45, 13):
        for frac in np.linspace(0.02, 0.95, 13):
            p = params_for_coupling(omega_c, 0.5 * math.sqrt(omega_c) * frac,
                                    10**6)
            g, w0, wc = collective_coupling(p), p.omega_0, p.omega_c
            plus = gse_rate_closed_form(p, "+")
            minus = gse_rate_closed_form(p, "-")
            total = ((g * wc) ** 2 * (w0 * w0 + g * g)
                     / ((w0 + wc) * (w0 * wc - g * g)) ** 2)
            offset = theta_plus(w0, wc, g) - math.atan(g / w0)
            assert plus + minus == pytest.approx(total, rel=1e-12)
            assert plus / (plus + minus) == pytest.approx(
                math.sin(offset) ** 2, rel=1e-12)
            assert 0 < offset < math.pi / 2


def test_unstable_coupling_rejected_at_construction():
    with pytest.raises(Unstable):
        params_for_coupling(1.0, 0.55, 100)


@pytest.mark.parametrize("omega_c", [0.6, 0.8, 1.0, 1.25, 1.45])
@pytest.mark.parametrize("branch", ["-", "+"])
def test_rung_pipeline_reproduces_closed_form(omega_c, branch):
    for frac in (0.05, 0.3, 0.6, 0.9):
        g = frac * math.sqrt(omega_c) / 2
        p = params_for_coupling(omega_c, g, 10**6)
        closed = gse_rate_closed_form(p, branch)
        pipeline = gse_rate_pipeline(1.0, omega_c, g, branch)
        assert abs(pipeline - closed) <= 1e-10 * max(closed, 1e-30)


def test_finite_n_rates_converge_to_closed_form():
    rels = []
    for n in (100, 10**4, 10**6):
        p = params_for_coupling(1.0, 0.05, n)
        rate = fermionic_rate_arrays(ParamStack.of([p])).rate_minus[0]
        closed = gse_rate_closed_form(p, "-")
        rels.append(abs(rate - closed) / closed)
    assert rels[0] < 1e-3
    assert rels[2] < 1e-6
    # 1/N convergence: two decades in N gain two decades in accuracy
    assert rels[0] / rels[1] == pytest.approx(100, rel=0.2)
    assert rels[1] / rels[2] == pytest.approx(100, rel=0.2)


def test_fermionic_rate_arrays_structure():
    p = params_for_coupling(1.0, 0.05, 10**6)
    res = fermionic_rate_arrays(ParamStack.of([p]))
    assert res.weight_plus[0] == pytest.approx(0.5, abs=1e-12)
    assert res.weight_minus[0] == pytest.approx(0.5, abs=1e-12)
    assert res.omega_plus[0] == pytest.approx(1.05, abs=1e-6)
    assert res.omega_minus[0] == pytest.approx(0.95, abs=1e-6)
    assert res.dark_rate[0] == pytest.approx(p.n_electrons, rel=5e-3)
    assert res.rate_minus[0] > res.rate_plus[0] > 0


def test_fermionic_rate_arrays_need_two_electrons():
    with pytest.raises(ConfigurationError):
        fermionic_rate_arrays(ParamStack.of([params_for_coupling(1.0, 0.0, 1)]))


def test_transition_strength_ignores_gating():
    p = params_for_coupling(1.0, 0.05, 10)
    ground = dressed_ground_state(p)
    minus = dressed_sector_states(p, 9, 4.5, 1)[0]
    gated = transition_rate_fermionic(ground, minus, "L", "out", p)
    assert transition_strength(ground, minus, p) == pytest.approx(gated, rel=1e-12)
    doubles = dressed_sector_states(p, 9, 4.5, 2)[0]
    # gates close the double-polariton channel but the element is finite
    total_gated = sum(transition_rate_fermionic(ground, doubles, lead, "out", p)
                      for lead in "LR")
    assert total_gated == 0.0
    assert transition_strength(ground, doubles, p) > 0.0


# ------------------------------------------------- stacked dressing vs loops

def _loop_dressing(params, n_electrons, j, n_exc):
    """Per-eigenstate first-order dressing written as plain loops: the
    reference the stacked matrix form must reproduce."""
    two_j = round(2 * j)

    def eigen(n):
        base = sector_base_energy(params, n_electrons, j)
        energies, vectors = _eigenbases(_kernels(params, n, two_j, two_j,
                                                 base))
        return n - min(n, two_j), energies, vectors  # matter clamps at 2j

    def amplitude(n, gamma, step):
        if step > 0:
            spin = two_j - n + gamma
            return params.chi * math.sqrt(max(spin, 0) * (gamma + 1)
                                          * (n - gamma + 1))
        spin = two_j - n + gamma + 1
        return params.chi * math.sqrt(gamma * (n - gamma) * spin)

    gmin, energies, vecs = eigen(n_exc)
    states = []
    for s in range(len(energies)):
        u = {(n_exc, gmin + i): vecs[i, s] for i in range(len(energies))}
        for step in (2, -2):
            if n_exc + step < 0:
                continue
            t_gmin, t_energies, t_vecs = eigen(n_exc + step)
            w = np.zeros(len(t_energies))
            for i in range(len(energies)):
                row = gmin + i + step // 2 - t_gmin
                if 0 <= row < len(w):
                    w[row] = amplitude(n_exc, gmin + i, step) * vecs[i, s]
            for q in range(len(t_energies)):
                coef = (w @ t_vecs[:, q]) / (t_energies[q] - energies[s])
                for i in range(len(w)):
                    key = (n_exc + step, t_gmin + i)
                    u[key] = u.get(key, 0.0) - coef * t_vecs[i, q]
        states.append({k: v for k, v in u.items() if v != 0.0 or k[0] == n_exc})
    return states


@pytest.mark.parametrize("n_electrons, n_exc", [(9, 0), (9, 1), (9, 2),
                                                (2, 2), (3, 3), (6, 4)])
def test_stacked_dressing_matches_loop_reference(n_electrons, n_exc):
    p = params_for_coupling(0.9, 0.2, 10)
    j = n_electrons / 2
    states = dressed_sector_states(p, n_electrons, j, n_exc)
    reference = _loop_dressing(p, n_electrons, j, n_exc)
    assert len(states) == len(reference)
    for state, ref in zip(states, reference):
        assert state.u.keys() == ref.keys()
        for key, value in ref.items():
            assert state.u[key] == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_stacked_rates_match_single_points():
    # one stack mixes the clamped groups N = 2, 3 with N >= 4
    points = [params_for_coupling(omega_c, 0.05, n)
              for omega_c in (0.8, 1.0, 1.3) for n in (2, 3, 4, 7, 10**6)]
    stacked = fermionic_rate_arrays(ParamStack.of(points))
    for i, p in enumerate(points):
        single = fermionic_rate_arrays(ParamStack.of([p]))
        for name in ("rate_plus", "rate_minus", "omega_plus", "omega_minus",
                     "weight_plus", "weight_minus", "dark_rate"):
            assert getattr(stacked, name)[i] == getattr(single, name)[0]


def _column_stack(points):
    return ParamStack(**{name: column[:, None]
                         for name, column in vars(ParamStack.of(points)).items()})


def test_dressed_subspace_rejects_a_mixed_stack():
    # two_j = 1 clamps subspace n_exc = 1 at one matter excitation, two_j = 4
    # at three: the stack has no shared shape
    stack = _column_stack([params_for_coupling(1.0, 0.05, n) for n in (2, 5)])
    n = stack.n_electrons
    with pytest.raises(ConfigurationError, match="matter clamps"):
        dressed_subspace(stack, n - 1, n - 1, 1)


@pytest.mark.parametrize("lost, n_exc", [(0, 0), (0, 1), (0, 2), (1, 0),
                                         (1, 1)])
def test_stacked_subspace_matches_single_points(lost, n_exc):
    # N = 4, 7 and 10^6 share the clamp of each of these subspaces
    points = [params_for_coupling(1.1, 0.1, n) for n in (4, 7, 10**6)]
    stack = _column_stack(points)
    n = stack.n_electrons - lost
    energies, blocks = dressed_subspace(stack, n, n, n_exc)
    for i, p in enumerate(points):
        m = p.n_electrons - lost
        single_energies, single_blocks = dressed_subspace(p, m, m, n_exc)
        assert np.array_equal(energies[i], single_energies)
        assert blocks.keys() == single_blocks.keys()
        for key, (gmin, coeffs) in single_blocks.items():
            assert blocks[key][0] == gmin
            assert np.array_equal(blocks[key][1][i], coeffs)
