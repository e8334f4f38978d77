import dataclasses
import math

import numpy as np
import pytest

from gse.errors import ConfigurationError, CutoffNotConverged
from gse.fermionic import (
    dressed_ground_state,
    dressed_sector_states,
    sector_base_energy,
    transition_strength,
)
from gse.oracle import (
    MAX_ELECTRONS,
    TruncatedHilbertSpace,
    _lowest_energy,
    _removal_operator,
    _sector_structure,
    compare_with_oracle,
    exact_ground_state,
    exact_transition_elements,
)
from gse.params import params_for_coupling

# (g, detuning, overrides), all inside the stability region; at the last
# two, regrouping the diagonal's sums changes how it rounds
OPERATING_POINTS = [
    (0.0, 0.0, {}), (0.02, -0.2, {}), (0.45, -0.1, {}),
    (0.2, 0.3, {"omega_0": 1.1, "omega_2_ref": 4.83}),
    (0.0314159, -0.123456789, {"omega_0": 0.93, "omega_2_ref": 5.3}),
]


def kron_hamiltonian(space, params):
    """The sector Hamiltonian built from Kronecker products, entry by entry
    the reference for TruncatedHilbertSpace.hamiltonian."""
    j = space.j
    m = space.m_values()
    base = sector_base_energy(params, space.n_electrons, j)

    ladder = np.zeros((space.n_matter, space.n_matter))
    for im in range(space.n_matter - 1):
        mm = m[im]
        ladder[im + 1, im] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    s_x2 = ladder + ladder.T

    lower = np.zeros((space.n_photon, space.n_photon))
    for gamma in range(1, space.n_photon):
        lower[gamma - 1, gamma] = math.sqrt(gamma)
    x_ph = lower + lower.T

    h = np.kron(np.diag(params.omega_0 * (m + j)), np.eye(space.n_photon))
    h += np.kron(np.eye(space.n_matter),
                 np.diag(params.omega_c * np.arange(space.n_photon)))
    h += params.chi * np.kron(s_x2, x_ph)
    h += base * np.eye(space.dim)
    return h


def ladder_spaces(cutoffs):
    """Every sector with N <= MAX_ELECTRONS and j = N/2, N/2 - 1, ..."""
    return [TruncatedHilbertSpace(n, two_j / 2.0, cutoff)
            for n in range(1, MAX_ELECTRONS + 1)
            for two_j in range(n % 2, n + 1, 2)
            for cutoff in cutoffs]


def test_space_validation():
    TruncatedHilbertSpace(2, 1.0, 8)
    with pytest.raises(ConfigurationError):
        TruncatedHilbertSpace(9, 4.5, 12)      # too many electrons
    with pytest.raises(ConfigurationError):
        TruncatedHilbertSpace(2, 1.0, 6)       # cutoff too small
    with pytest.raises(ConfigurationError):
        TruncatedHilbertSpace(2, 1.7, 12)      # j not on the ladder
    with pytest.raises(ConfigurationError):
        TruncatedHilbertSpace(2, 2.0, 12)      # j exceeds N/2


def test_basis_layout():
    sp = TruncatedHilbertSpace(2, 1.0, 8)
    assert sp.dim == 3 * 9
    assert sp.basis_index(-1.0, 0) == 0
    assert sp.basis_index(-1.0, 3) == 3
    assert sp.basis_index(0.0, 0) == 9
    assert sp.basis_index(1.0, 8) == sp.dim - 1
    with pytest.raises(ConfigurationError):
        sp.basis_index(1.0, 9)


def test_free_ground_energy_is_electrostatic():
    p = params_for_coupling(1.0, 0.0, 3)
    sp = TruncatedHilbertSpace(3, 1.5, 12)
    energy, vec = exact_ground_state(sp, p)
    assert energy == pytest.approx(sector_base_energy(p, 3, 1.5), abs=1e-12)
    assert vec[sp.basis_index(-1.5, 0)] == pytest.approx(1.0)


def test_interacting_ground_has_even_parity_only():
    p = params_for_coupling(1.0, 0.3, 2)
    sp = TruncatedHilbertSpace(2, 1.0, 16)
    _, vec = exact_ground_state(sp, p)
    even, odd = sp.parity_masks()
    assert float(np.sum(vec[odd] ** 2)) < 1e-20
    assert float(np.sum(vec[even] ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_ground_contains_virtual_photons():
    p = params_for_coupling(1.0, 0.2, 2)
    sp = TruncatedHilbertSpace(2, 1.0, 16)
    _, vec = exact_ground_state(sp, p)
    bare = sp.basis_index(-1.0, 0)
    photon_weight = 1.0 - vec[bare] ** 2
    assert photon_weight > 1e-4


def test_cutoff_escalation():
    p = params_for_coupling(1.0, 0.48, 2)
    with pytest.raises(CutoffNotConverged):
        exact_ground_state(TruncatedHilbertSpace(2, 1.0, 8), p)
    report = compare_with_oracle(p, photon_cutoff=8)
    assert report.photon_cutoff > 8


def test_sum_rule():
    p = params_for_coupling(1.0, 0.05, 4)
    table = exact_transition_elements(
        TruncatedHilbertSpace(4, 2.0, 12), TruncatedHilbertSpace(3, 1.5, 12), p)
    assert table.sum_rule_residual <= 1e-10
    assert sum(table.strengths) <= 4.0 + 1e-10


def test_sector_mismatch_rejected():
    p = params_for_coupling(1.0, 0.05, 4)
    with pytest.raises(ConfigurationError):
        exact_transition_elements(TruncatedHilbertSpace(4, 2.0, 12),
                                  TruncatedHilbertSpace(2, 1.0, 12), p)
    with pytest.raises(ConfigurationError):
        exact_transition_elements(TruncatedHilbertSpace(4, 2.0, 12),
                                  TruncatedHilbertSpace(3, 1.5, 16), p)
    # an unconverged cutoff of the ground sector is not reached
    with pytest.raises(ConfigurationError):
        exact_transition_elements(TruncatedHilbertSpace(2, 1.0, 8),
                                  TruncatedHilbertSpace(1, 0.5, 12),
                                  params_for_coupling(1.0, 0.48, 2))


def test_labels_cover_final_states():
    p = params_for_coupling(1.0, 0.05, 3)
    table = exact_transition_elements(
        TruncatedHilbertSpace(3, 1.5, 12), TruncatedHilbertSpace(2, 1.0, 12), p)
    assert table.labels == ("G", "-", "+", "--", "+-", "++")
    # single-electron final sector has no fully excited pair state
    table2 = exact_transition_elements(
        TruncatedHilbertSpace(2, 1.0, 12), TruncatedHilbertSpace(1, 0.5, 12), p)
    assert table2.labels == ("G", "-", "+", "--", "+-")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_perturbative_pipeline_certified_off_resonance(n):
    p = params_for_coupling(0.8, 0.02, n)
    report = compare_with_oracle(p)
    assert report.sum_rule_residual <= 1e-10
    assert report.max_single_rel_error <= 10 * 0.02**2
    # ground energies agree through second order in chi
    assert report.ground_energy_exact == pytest.approx(
        report.ground_energy_pt, abs=5e-4)


def test_dominant_channel_is_ground_to_ground():
    p = params_for_coupling(0.8, 0.02, 3)
    report = compare_with_oracle(p)
    strengths = {row.label: row.strength_exact for row in report.rows}
    assert strengths["G"] == pytest.approx(3.0, rel=1e-3)
    assert strengths["G"] > strengths["-"] > strengths["+"]


def test_oracle_needs_two_electrons():
    with pytest.raises(ConfigurationError):
        compare_with_oracle(params_for_coupling(1.0, 0.02, 1))


def test_hamiltonian_equals_kron_reference():
    for space in ladder_spaces((8, 12, 16)):
        for g, detuning, overrides in OPERATING_POINTS:
            p = params_for_coupling(1.0 + detuning, g, space.n_electrons,
                                    **overrides)
            h = space.hamiltonian(p)
            assert np.array_equal(h, kron_hamiltonian(space, p)), (space, g)


def test_probe_block_minimum_equals_full_lowest_eigenvalue():
    for space in ladder_spaces((12, 16)):
        even, odd = space.parity_masks()
        for g, detuning, overrides in OPERATING_POINTS:
            p = params_for_coupling(1.0 + detuning, g, space.n_electrons,
                                    **overrides)
            h = space.hamiltonian(p)
            assert not h[np.ix_(even, odd)].any()
            full = float(np.linalg.eigvalsh(h)[0])
            assert _lowest_energy(space, p) == pytest.approx(full, abs=1e-12)


def test_cached_structure_is_read_only():
    space_n = TruncatedHilbertSpace(3, 1.5, 12)
    space_nm1 = TruncatedHilbertSpace(2, 1.0, 12)
    shape = _sector_structure(space_n.two_j, space_n.photon_cutoff)
    cached = [getattr(shape, field.name) for field in dataclasses.fields(shape)
              if isinstance(getattr(shape, field.name), np.ndarray)]
    cached += [*space_n.parity_masks(), _removal_operator(space_n, space_nm1)]
    assert len(cached) == 9
    for array in cached:
        with pytest.raises(ValueError):
            array.flat[0] = 1



@pytest.mark.parametrize("g, detuning, overrides", OPERATING_POINTS)
def test_report_equals_per_state_transition_strengths(g, detuning, overrides):
    # the report brackets each final subspace once; the per-state public
    # functions are the reference, bit for bit
    for n in range(2, MAX_ELECTRONS + 1):
        params = params_for_coupling(1.0 + detuning, g, n, **overrides)
        ground = dressed_ground_state(params)
        finals = [state for n_exc in range(3) for state in
                  dressed_sector_states(params, n - 1, (n - 1) / 2, n_exc)]
        report = compare_with_oracle(params)
        assert [row.label for row in report.rows] == [s.label for s in finals]
        for row, state in zip(report.rows, finals):
            assert row.label == state.label
            assert row.strength_pt == transition_strength(ground, state,
                                                          params)
            assert row.omega_pt == state.energy - finals[0].energy
        assert report.ground_energy_pt == ground.energy
