import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gse.errors import (
    ConfigurationError,
    DegenerateDenominator,
    InvalidQuantumNumbers,
    Unstable,
    UnsupportedDoubleOccupancy,
)
from gse.fermionic import (
    _kernels,
    _signed,
    clebsch_coeffs,
    dressed_ground_state,
    dressed_sector_states,
    dressed_subspace,
    extraction_strengths,
    fermionic_rate_arrays,
    gse_rate_closed_form,
    gse_rate_pipeline,
    sector_base_energy,
    subspace_bracket,
    theta_plus,
    transition_rate_fermionic,
    transition_strength,
)
from gse.params import ParamStack, collective_coupling, params_for_coupling


# ------------------------------------------------------- addition amplitudes

@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(0, 40))
def test_clebsch_unitarity(two_j, m_idx):
    # M = -J + m_idx/2: an odd m_idx makes J - M half-odd, no (J, M) pair
    j = two_j / 2
    m = -j + m_idx / 2
    for branch in "+-":
        if m_idx % 2 or m > j:
            with pytest.raises(InvalidQuantumNumbers):
                clebsch_coeffs(j, m, branch)
        else:
            c, d = clebsch_coeffs(j, m, branch)
            assert c * c + d * d == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("j, m, branch, expected", [
    (1.0, 1.0 + 1e-13, "-", (0.0, 1.0)),
    (0.5 + 1e-13, 0.5, "-", (0.0, 1.0)),
    (1.0, 0.5, "+", InvalidQuantumNumbers),
    (1.0, -1.5, "+", InvalidQuantumNumbers),
    (-0.5, 0.5, "+", InvalidQuantumNumbers),
    (math.inf, 0.5, "+", InvalidQuantumNumbers),
    (1.0, math.nan, "-", InvalidQuantumNumbers),
])
def test_clebsch_takes_the_half_integers_it_accepts(j, m, branch, expected):
    # within 1e-12 of a half-integer, J and M are that half-integer
    if expected is InvalidQuantumNumbers:
        with pytest.raises(InvalidQuantumNumbers, match="invalid"):
            clebsch_coeffs(j, m, branch)
    else:
        assert clebsch_coeffs(j, m, branch) == expected


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

def test_subspace_holds_at_most_two_j_plus_one_states():
    p = params_for_coupling(1.0, 0.05, 6)
    # matter excitations cannot exceed 2j
    assert len(dressed_sector_states(p, 2, 1.0, 5)) == 3
    assert len(dressed_sector_states(p, 6, 3.0, 2)) == 3


@pytest.mark.parametrize("j, n_exc", [(1.7, 1), (-0.5, 1), (1.0, -1),
                                      (5.0, 1), (0.5, 1), (math.inf, 1),
                                      (math.nan, 1)])
def test_sector_states_reject_invalid_quantum_numbers(j, n_exc):
    p = params_for_coupling(1.0, 0.05, 6)
    with pytest.raises(InvalidQuantumNumbers):
        dressed_sector_states(p, 2, j, n_exc)


def test_kernel_symmetric_and_ordered():
    p = params_for_coupling(1.0, 0.1, 4)
    kern = np.array(_kernels(p, 2, 3, 4, sector_base_energy(p, 4, 2.0)))
    assert np.max(np.abs(kern - kern.T)) == 0.0
    energies, _ = np.linalg.eigh(kern)
    assert np.all(np.diff(energies) > 0)


def _photon_eigenbasis(vecs: np.ndarray) -> np.ndarray:
    """The eigenvector sign rule, stated independently: negate each
    column whose first nonzero matter-indexed entry is negative, then
    reverse the rows into photon order."""
    vecs = vecs.copy()
    for s in range(vecs.shape[1]):
        column = vecs[:, s]
        if column[np.flatnonzero(column)[0]] < 0.0:
            vecs[:, s] = np.negative(column)
    return vecs[::-1]


def test_one_point_sign_rule_equals_the_stacked_one():
    # eigenvectors of symmetric tridiagonal kernels of dimension 1-6 with
    # couplings zeroed at random, their columns negated at random so that
    # some first nonzero components are negative and some zeros are -0.0:
    # the one rule gives the reference's bits on the float rows of one
    # point and on the columns of a one-point stack, so a lost -0.0 fails
    rng = np.random.default_rng(28)
    columns = []
    for dim in range(1, 7):
        for _ in range(60):
            coupling = rng.uniform(-1.0, 1.0, dim - 1)
            coupling[rng.random(dim - 1) < 0.4] = 0.0
            kernel = (np.diag(rng.uniform(-2.0, 2.0, dim))
                      + np.diag(coupling, 1) + np.diag(coupling, -1))
            vecs = np.linalg.eigh(kernel)[1] * rng.choice([-1.0, 1.0], dim)
            columns += list(vecs.T)
            want = _photon_eigenbasis(vecs).view(np.uint64)
            rows = _signed(vecs.tolist())
            assert all(type(value) is float for row in rows for value in row)
            assert np.array_equal(np.array(rows).view(np.uint64), want)
            stacked = _signed([list(row) for row in vecs[..., None]])
            assert np.array_equal(
                np.array(stacked).reshape(dim, dim).view(np.uint64), want)
    firsts = [column[np.flatnonzero(column)[0]] for column in columns]
    assert any(lead < 0.0 for lead in firsts)
    assert any(column[0] == 0.0 and lead < 0.0
               for column, lead in zip(columns, firsts))
    assert any(((column == 0.0) & np.signbit(column)).any()
               for column in columns)


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


def test_single_electron_final_sector_has_two_doubles():
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


def _closed_form_reference(w0: float, wc: float, g: float):
    """(Gamma_-, Gamma_+, theta_plus) of the closed form's defining
    equation, in 50-digit decimal arithmetic from the exact float inputs:
    the amplitudes g w_c (w_0 cos + g sin) / ((w_0 + w_c)(w_0 w_c - g^2))
    at theta_plus and theta_plus + pi/2, tan theta_plus = (R - Delta)/(2g).
    The angle is the float atan2 of the two legs, each rounded once."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        w0, wc, g = (decimal.Decimal(x) for x in (w0, wc, g))
        delta = w0 - wc
        r = (4 * g * g + delta * delta).sqrt()
        rise, run = r - delta, 2 * g
        hyp = (rise * rise + run * run).sqrt()
        cos, sin = run / hyp, rise / hyp
        scale = g * wc / ((w0 + wc) * (w0 * wc - g * g))
        minus = scale * (w0 * cos + g * sin)
        plus = scale * (g * cos - w0 * sin)
        return (float(minus * minus), float(plus * plus),
                math.atan2(float(rise), float(run)))


def test_closed_form_against_decimal_reference():
    # omega_c log-uniform on [1e-3, 1e3], g_N log-uniform from 1e-7 of the
    # Dicke bound sqrt(omega_c)/2 up to it, and the two corners where the
    # weaker branch used to cancel away
    rng = np.random.default_rng(15)
    omega_c = 10.0 ** rng.uniform(-3.0, 3.0, 300)
    frac = 10.0 ** rng.uniform(-7.0, math.log10(0.999), 300)
    cases = [(0.5, 1e-6), (0.01, 5e-8)] + list(
        zip(omega_c.tolist(), (0.5 * np.sqrt(omega_c) * frac).tolist()))
    worst = 0.0
    for wc, g_n in cases:
        p = params_for_coupling(wc, g_n, 10**6)
        w0, g = p.omega_0, collective_coupling(p)
        minus, plus, theta = _closed_form_reference(w0, p.omega_c, g)
        for got, want in ((gse_rate_closed_form(p, "-"), minus),
                          (gse_rate_closed_form(p, "+"), plus),
                          (theta_plus(w0, p.omega_c, g), theta)):
            worst = max(worst, abs(got - want) / want)
    assert worst < 1e-14


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
        rate = fermionic_rate_arrays(p)[3]  # rate_minus
        closed = gse_rate_closed_form(p, "-")
        rels.append(abs(rate - closed) / closed)
    assert rels[0] < 1e-3
    assert rels[2] < 1e-6
    # 1/N convergence: two decades in N gain two decades in accuracy
    assert rels[0] / rels[1] == pytest.approx(100, rel=0.2)
    assert rels[1] / rels[2] == pytest.approx(100, rel=0.2)


def test_fermionic_rate_arrays_structure():
    p = params_for_coupling(1.0, 0.05, 10**6)
    omega_p, omega_m, rate_p, rate_m, weight_p, weight_m = \
        fermionic_rate_arrays(p)
    assert weight_p == pytest.approx(0.5, abs=1e-12)
    assert weight_m == pytest.approx(0.5, abs=1e-12)
    assert omega_p == pytest.approx(1.05, abs=1e-6)
    assert omega_m == pytest.approx(0.95, abs=1e-6)
    assert rate_m > rate_p > 0
    # extraction into the N - 1 ground nearly counts the electrons
    _, [(_, _, dark)] = extraction_strengths(p, (0,))
    assert dark[0] == pytest.approx(p.n_electrons, rel=5e-3)


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
        matter = min(n, two_j)  # at most 2j matter excitations
        energies, vectors = np.linalg.eigh(_kernels(params, n, matter + 1,
                                                    two_j, base))
        return n - matter, energies, _photon_eigenbasis(vectors)

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
    # one stack mixes the groups N = 2, 3, whose final subspace 3 is cut
    # at 2j matter excitations, with N >= 4
    points = [params_for_coupling(omega_c, 0.05, n)
              for omega_c in (0.8, 1.0, 1.3) for n in (2, 3, 4, 7, 10**6)]
    stacked = fermionic_rate_arrays(ParamStack.of(points))
    for i, p in enumerate(points):
        single = fermionic_rate_arrays(ParamStack.of([p]))
        for column, single_column in zip(stacked, single, strict=True):
            assert column[i] == single_column[0]


def test_dressed_subspace_rejects_a_mixed_stack(count_calls):
    # dressing subspace 1 reaches subspace 3, which holds 2 states at
    # two_j = 1 and 4 at two_j = 4: the stack has no shared shape, and
    # that is found before any solve
    stack = ParamStack.of([params_for_coupling(1.0, 0.05, n) for n in (2, 5)])
    n = stack.n_electrons
    calls = count_calls("eigh")
    with pytest.raises(ConfigurationError,
                       match="subspace 3 holds 2 to 4 states"):
        dressed_subspace(stack, n - 1, n - 1, 1)
    assert calls == {"eigh": 0}


@pytest.mark.parametrize("lost, n_exc", [(0, 0), (0, 1), (0, 2), (1, 0),
                                         (1, 1)])
def test_stacked_subspace_matches_single_points(lost, n_exc):
    # N = 4, 7 and 10^6 share the size of each of these subspaces
    points = [params_for_coupling(1.1, 0.1, n) for n in (4, 7, 10**6)]
    stack = ParamStack.of(points)
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


# ------------------------------------- extraction against full dressing

def _fully_dressed_strengths(params, n_excs):
    """`extraction_strengths` spelled out over fully dressed subspaces:
    the reference it must equal bit for bit."""
    n = params.n_electrons
    ground_energy, ground = dressed_subspace(params, n, n, 0)
    finals = []
    for n_exc in n_excs:
        energies, blocks = dressed_subspace(params, n - 1, n - 1, n_exc)
        amp = subspace_bracket(ground, n / 2, blocks, (n - 1) / 2, -1, False)
        finals.append((energies, blocks,
                       np.asarray(n)[..., None] * amp * amp))
    return ground_energy, finals


def assert_extraction_matches_full_dressing(params, n_excs=range(3)):
    try:
        full_energy, full = _fully_dressed_strengths(params, n_excs)
    except DegenerateDenominator as error:
        # the same subspaces are checked in the same order
        with pytest.raises(DegenerateDenominator) as caught:
            extraction_strengths(params, n_excs)
        assert str(caught.value) == str(error)
        return
    ground_energy, finals = extraction_strengths(params, n_excs)
    assert np.array_equal(ground_energy, full_energy)
    for n_exc, (energies, blocks, strengths), (e_full, b_full, s_full) in zip(
            n_excs, finals, full, strict=True):
        assert np.array_equal(energies, e_full)
        assert np.array_equal(strengths, s_full)
        # the source block and the targets the bracket reads, n <= 2
        assert blocks.keys() == {n for n in b_full if n == n_exc or n <= 2}
        for n, (gmin, coeffs) in blocks.items():
            assert b_full[n][0] == gmin
            assert np.array_equal(coeffs, b_full[n][1])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 10**6])
def test_extraction_equals_full_dressing_at_single_points(n):
    for omega_c, g in ((0.8, 0.02), (1.0, 0.1), (1.3, 0.3)):
        assert_extraction_matches_full_dressing(
            params_for_coupling(omega_c, g, n), range(4))


def test_extraction_equals_full_dressing_on_a_stack():
    # N = 6, 7 and 10^6 share the size of every subspace the final
    # subspaces 0..2 reach
    stack = ParamStack.of([params_for_coupling(1.0 + detuning, g, n)
                           for detuning in (-0.5, 0.0, 0.4)
                           for g in (0.02, 0.2) for n in (6, 7, 10**6)])
    assert_extraction_matches_full_dressing(stack)


LINALG = [name for name in np.linalg.__all__
          if callable(getattr(np.linalg, name))
          and not isinstance(getattr(np.linalg, name), type)]


def assert_float_row(entries, row: np.ndarray):
    """`entries` are built-in floats in nested lists, bit for bit `row`."""
    flat = [entries]
    while any(type(entry) is list for entry in flat):
        flat = [value for entry in flat for value in entry]
    assert all(type(value) is float for value in flat)
    assert np.array_equal(np.array(entries).view(np.uint64),
                          np.ascontiguousarray(row).view(np.uint64))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 10**6])
def test_one_point_equals_its_row_of_a_one_n_stack(n, count_calls):
    # a SystemParams runs on floats and a stack on columns: the same bits
    # at every subspace size the oracle meets, zero coupling included, and
    # one point returns them as built-in floats
    points = [params_for_coupling(omega_c, g, n) for omega_c, g in
              ((0.8, 0.02), (1.0, 0.1), (1.3, 0.3), (1 / 3, 0.0))]
    stack_energy, stack_finals = extraction_strengths(ParamStack.of(points),
                                                      range(4))
    for i, p in enumerate(points):
        calls = count_calls(*LINALG)
        energy, finals = extraction_strengths(p, range(4))
        # one eigh per solved subspace: n_exc = 2 of the ground sector and
        # 1 to 5 of the final one
        assert calls == dict.fromkeys(LINALG, 0) | {"eigh": 6}
        assert_float_row(energy, stack_energy[i])
        for (energies, blocks, strengths), (s_energies, s_blocks,
                                            s_strengths) in zip(
                finals, stack_finals, strict=True):
            assert_float_row(energies, s_energies[i])
            assert_float_row(strengths, s_strengths[i])
            assert blocks.keys() == s_blocks.keys()
            for key, (gmin, coeffs) in blocks.items():
                assert s_blocks[key][0] == gmin
                assert_float_row(coeffs, s_blocks[key][1][i])
    # (omega_c, g) = (1/3, 1e-6) has a degenerate denominator at every N
    degenerate = params_for_coupling(1 / 3, 1e-6, n)
    with pytest.raises(DegenerateDenominator) as alone:
        extraction_strengths(degenerate, range(4))
    with pytest.raises(DegenerateDenominator) as stacked:
        extraction_strengths(ParamStack.of(points + [degenerate]), range(4))
    assert str(stacked.value) == str(alone.value)


def test_one_point_subspace_and_bracket_are_floats_of_the_stack_row():
    # the bracket takes one point's lists or 2-D arrays alike
    p = params_for_coupling(0.9, 0.2, 6)
    stack = ParamStack.of([p])
    ground_energy, ground = dressed_subspace(p, 6, 6, 0)
    energies, blocks = dressed_subspace(p, 5, 5, 1)
    s_ground_energy, s_ground = dressed_subspace(stack, 6, 6, 0)
    s_energies, s_blocks = dressed_subspace(stack, 5, 5, 1)
    assert_float_row(ground_energy, s_ground_energy[0])
    assert_float_row(energies, s_energies[0])
    for key, (gmin, coeffs) in blocks.items():
        assert s_blocks[key][0] == gmin
        assert_float_row(coeffs, s_blocks[key][1][0])
    s_amp = subspace_bracket(s_ground, 3.0, s_blocks, 2.5, -1, False)
    amp = subspace_bracket(ground, 3.0, blocks, 2.5, -1, False)
    assert_float_row(amp, s_amp[0])
    arrays = [{n: (gmin, np.array(coeffs)) for n, (gmin, coeffs)
               in dressed.items()} for dressed in (ground, blocks)]
    assert_float_row(subspace_bracket(arrays[0], 3.0, arrays[1], 2.5, -1,
                                      False), s_amp[0])


def test_empty_stack_gives_empty_arrays():
    # column labels of no point, and number labels that keep their sizes
    empty = ParamStack.of([])
    ground_energy, finals = extraction_strengths(empty, (0, 1))
    assert ground_energy.shape == (0, 1)
    for energies, blocks, strengths in finals:
        assert energies.size == strengths.size == 0
        assert all(coeffs.size == 0 for _, coeffs in blocks.values())
    assert [column.shape for column in fermionic_rate_arrays(empty)] == [
        (0,)] * 6
    energies, blocks = dressed_subspace(empty, 4, 4, 1)
    assert energies.shape == (0, 2)
    assert {n: coeffs.shape for n, (_, coeffs) in blocks.items()} == {
        1: (0, 2, 2), 3: (0, 4, 2)}


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 0.3), st.floats(-0.5, 0.5),
       st.one_of(st.integers(2, 8), st.just(10**6)))
def test_extraction_equals_full_dressing_property(g, detuning, n):
    assert_extraction_matches_full_dressing(
        params_for_coupling(1.0 + detuning, g, n))


@pytest.mark.parametrize("n", [6, 10**6])
@pytest.mark.parametrize("omega_c, target", [(2.0, "n=4"), (3.0, "n=3")])
def test_unread_targets_still_reject_degenerate_denominators(n, omega_c,
                                                             target):
    # no bracket reads the n_exc + 2 block of the singles (n = 3) or of
    # the doubles (n = 4), but its denominators are still checked
    p = params_for_coupling(omega_c, 1e-6, n)
    with pytest.raises(DegenerateDenominator,
                       match=f"target sector {target}, j={(n - 1) / 2}$"):
        extraction_strengths(p, range(3))
