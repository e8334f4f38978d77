import dataclasses
import math

import numpy as np
import pytest

from gse.errors import ConfigurationError, CutoffNotConverged
from gse.fermionic import (
    dressed_ground_state,
    dressed_sector_states,
    dressed_subspace,
    extraction_strengths,
    fermionic_rate_arrays,
    sector_base_energy,
    transition_strength,
)
from gse.oracle import (
    ENERGY_TOL,
    MAX_ELECTRONS,
    TruncatedHilbertSpace,
    _lowest_eigenpair,
    _lowest_energy,
    _removed,
    _sector_structure,
    compare_with_oracle,
    exact_ground_state,
    exact_transition_elements,
)
from gse.params import ParamStack, params_for_coupling

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
    j = space.n_electrons / 2.0
    n_matter, n_photon = space.n_electrons + 1, space.photon_cutoff + 1
    m = -j + np.arange(n_matter)
    base = sector_base_energy(params, space.n_electrons, j)

    ladder = np.zeros((n_matter, n_matter))
    for im in range(n_matter - 1):
        mm = m[im]
        ladder[im + 1, im] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    s_x2 = ladder + ladder.T

    lower = np.zeros((n_photon, n_photon))
    for gamma in range(1, n_photon):
        lower[gamma - 1, gamma] = math.sqrt(gamma)
    x_ph = lower + lower.T

    h = np.kron(np.diag(params.omega_0 * (m + j)), np.eye(n_photon))
    h += np.kron(np.eye(n_matter),
                 np.diag(params.omega_c * np.arange(n_photon)))
    h += params.chi * np.kron(s_x2, x_ph)
    h += base * np.eye(space.dim)
    return h


def ladder_spaces(cutoffs):
    """Every sector with N <= MAX_ELECTRONS (j = N/2)."""
    return [TruncatedHilbertSpace(n, cutoff)
            for n in range(1, MAX_ELECTRONS + 1) for cutoff in cutoffs]


def loop_removal_operator(n, cutoff):
    """Removal N -> N - 1 built state by state at index
    (m + j)(cutoff + 1) + gamma, with amplitudes sqrt((j -+ m)/2j): the
    reference for the oracle's removal of a ground vector."""
    j, n_photon = n / 2.0, cutoff + 1
    op = np.zeros((n * n_photon, (n + 1) * n_photon))
    eye_ph = np.arange(n_photon)
    for m in -j + np.arange(n + 1):
        up = math.sqrt((j - m) / (2 * j))
        down = math.sqrt((j + m) / (2 * j))
        col = round(m + j) * n_photon
        if up != 0.0:
            row = round(m + 0.5 + (j - 0.5)) * n_photon
            op[row + eye_ph, col + eye_ph] += up
        if down != 0.0:
            row = round(m - 0.5 + (j - 0.5)) * n_photon
            op[row + eye_ph, col + eye_ph] += down
    return op


def test_space_validation():
    TruncatedHilbertSpace(2, 8)
    with pytest.raises(ConfigurationError):
        TruncatedHilbertSpace(9, 12)      # too many electrons
    with pytest.raises(ConfigurationError):
        TruncatedHilbertSpace(2, 6)       # cutoff too small


def test_counts_must_be_integers():
    # numpy integers are valid and stored as built-in ints; a float N or
    # cutoff is a configuration error, also through the public comparison
    space = TruncatedHilbertSpace(np.int64(3), np.int64(12))
    assert (type(space.n_electrons), type(space.photon_cutoff)) == (int, int)
    for n, cutoff, message in (
            (3.0, 12, "n_electrons must be an integer, got 3.0"),
            (3, 12.0, "photon_cutoff must be an integer, got 12.0")):
        with pytest.raises(ConfigurationError) as error:
            TruncatedHilbertSpace(n, cutoff)
        assert str(error.value) == message
        with pytest.raises(ConfigurationError, match=message):
            compare_with_oracle(params_for_coupling(1.0, 0.02, n),
                                photon_cutoff=cutoff)


def test_basis_layout():
    # index (m + j)(cutoff + 1) + gamma, m + j = 0..N
    shape = _sector_structure(2, 8)
    assert TruncatedHilbertSpace(2, 8).dim == 3 * 9 == shape.matter.size
    for index, (matter, photons) in {0: (0, 0), 3: (0, 3), 9: (1, 0),
                                     3 * 9 - 1: (2, 8)}.items():
        assert (shape.matter[index], shape.photons[index]) == (matter, photons)


def test_free_ground_energy_is_electrostatic():
    p = params_for_coupling(1.0, 0.0, 3)
    sp = TruncatedHilbertSpace(3, 12)
    energy, vec = exact_ground_state(sp, p)
    assert energy == pytest.approx(sector_base_energy(p, 3, 1.5), abs=1e-12)
    assert vec[0] == pytest.approx(1.0)  # |m = -j, 0 photons>


def test_interacting_ground_has_even_parity_only():
    p = params_for_coupling(1.0, 0.3, 2)
    sp = TruncatedHilbertSpace(2, 16)
    _, vec = exact_ground_state(sp, p)
    even, odd = sp.parity_masks()
    assert float(np.sum(vec[odd] ** 2)) < 1e-20
    assert float(np.sum(vec[even] ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_ground_contains_virtual_photons():
    p = params_for_coupling(1.0, 0.2, 2)
    sp = TruncatedHilbertSpace(2, 16)
    _, vec = exact_ground_state(sp, p)
    photon_weight = 1.0 - vec[0] ** 2  # 1 - |<m = -j, 0 photons|G>|^2
    assert photon_weight > 1e-4


def test_cutoff_escalation():
    p = params_for_coupling(1.0, 0.48, 2)
    with pytest.raises(CutoffNotConverged):
        exact_ground_state(TruncatedHilbertSpace(2, 8), p)
    report = compare_with_oracle(p, photon_cutoff=8)
    assert report.photon_cutoff > 8


def test_sum_rule():
    p = params_for_coupling(1.0, 0.05, 4)
    table = exact_transition_elements(TruncatedHilbertSpace(4, 12), p)
    assert table.sum_rule_residual <= 1e-10
    assert sum(table.strengths) <= 4.0 + 1e-10


def test_sector_mismatch_rejected():
    # one electron has no final sector; the ground solve, which would
    # not converge at this cutoff, is not reached, and the error names
    # the caller's N = 1, not the final sector's 0
    with pytest.raises(ConfigurationError) as error:
        exact_transition_elements(TruncatedHilbertSpace(1, 8),
                                  params_for_coupling(1.0, 0.48, 1))
    assert str(error.value) == (
        "removing an electron needs at least 2 electrons, got 1")


def test_labels_cover_final_states():
    p = params_for_coupling(1.0, 0.05, 3)
    table = exact_transition_elements(TruncatedHilbertSpace(3, 12), p)
    assert table.labels == ("G", "-", "+", "--", "+-", "++")
    # single-electron final sector has no fully excited pair state
    table2 = exact_transition_elements(TruncatedHilbertSpace(2, 12), p)
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
    space = TruncatedHilbertSpace(3, 12)
    shape = _sector_structure(3, 12)
    cached = [getattr(shape, field.name) for field in dataclasses.fields(shape)
              if isinstance(getattr(shape, field.name), np.ndarray)]
    cached += space.parity_masks()
    assert len(cached) == 9
    for array in cached:
        with pytest.raises(ValueError):
            array.flat[0] = 1


def test_removal_operator_equals_loop_reference():
    # the removal of each unit vector is one column of the operator
    for n in range(2, MAX_ELECTRONS + 1):
        for cutoff in (8, 12, 16):
            space = TruncatedHilbertSpace(n, cutoff)
            op = np.column_stack([_removed(space, unit)
                                  for unit in np.eye(space.dim)])
            assert op.shape == (TruncatedHilbertSpace(n - 1, cutoff).dim,
                                space.dim)
            assert np.array_equal(op, loop_removal_operator(n, cutoff)), n


def test_removal_rounds_each_entry_once():
    # every entry is a * x + b * y in IEEE double, as Python floats
    # compute it, whatever BLAS kernel the CPU gets
    rng = np.random.default_rng(20161)
    for n in range(2, MAX_ELECTRONS + 1):
        for cutoff in range(8, 45):
            space = TruncatedHilbertSpace(n, cutoff)
            step = cutoff + 1
            for vec in rng.standard_normal((3, space.dim)):
                values = vec.tolist()
                expected = [
                    math.sqrt((n - k) / n) * values[i]
                    + math.sqrt((k + 1) / n) * values[i + step]
                    for i, k in ((i, i // step) for i in range(n * step))]
                got = _removed(space, vec)
                assert np.array_equal(got.view(np.uint64),
                                      np.array(expected).view(np.uint64)), \
                    (n, cutoff)


def test_cached_structure_grows_linearly_with_the_sector():
    # at most four entries a state: no cached array is a dense operator
    for n in range(1, MAX_ELECTRONS + 1):
        for cutoff in range(8, 41):
            shape = _sector_structure(n, cutoff)
            dim = TruncatedHilbertSpace(n, cutoff).dim
            for field in dataclasses.fields(shape):
                value = getattr(shape, field.name)
                assert np.size(value) <= 4 * dim, (n, cutoff, field.name)


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
            # every value a built-in float: no numpy scalar leaks
            for field in dataclasses.fields(row)[1:]:
                assert type(getattr(row, field.name)) is float, field.name
            assert row.strength_pt.hex() == transition_strength(
                ground, state, params).hex()
            assert row.omega_pt.hex() == (state.energy
                                          - finals[0].energy).hex()
        assert type(report.ground_energy_pt) is float
        assert report.ground_energy_pt.hex() == ground.energy.hex()


def _numbers(value) -> list:
    """The numbers of nested tuples, lists, dicts and dataclasses, in
    order; gamma_min offsets and labels count as numbers too."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name)
                 for field in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = [*value.items()]
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _numbers(item)]
    return [] if isinstance(value, str) else [value]


def test_numpy_electron_counts_give_built_in_floats():
    # one point reads its counts as built-in numbers: numpy integers give
    # the built-in floats of an int run, bit for bit
    for n in (2, 4, 7):
        runs = []
        for count in (n, np.int64(n)):
            params = params_for_coupling(1.0, 0.02, count)
            runs.append([
                extraction_strengths(params, range(3)),
                [dressed_subspace(params, count, count, n_exc)
                 for n_exc in range(3)],
                [dressed_subspace(params, count - 1, count - 1, n_exc)
                 for n_exc in range(3)],
                compare_with_oracle(params)])
        want, got = map(_numbers, runs)
        assert [type(leaf) for leaf in got] == [type(leaf) for leaf in want]
        assert {type(leaf) for leaf in got} == {int, float}
        assert np.array_equal(np.array(got, dtype=float).view(np.uint64),
                              np.array(want, dtype=float).view(np.uint64)), n


def test_parity_blocks_equal_blocks_of_full_hamiltonian():
    for space in ladder_spaces((8, 12, 16)):
        for g, detuning, overrides in OPERATING_POINTS:
            p = params_for_coupling(1.0 + detuning, g, space.n_electrons,
                                    **overrides)
            h = space.hamiltonian(p)
            for block, idx in zip(space.parity_blocks(p),
                                  space.parity_masks(), strict=True):
                assert np.array_equal(block, h[np.ix_(idx, idx)]), (space, g)
        overflowing = params_for_coupling(1e308, 0.02, space.n_electrons)
        with pytest.raises(ConfigurationError) as full:
            space.hamiltonian(overflowing)
        with pytest.raises(ConfigurationError) as blocks:
            space.parity_blocks(overflowing)
        assert "sector Hamiltonian overflows" in str(full.value)
        assert str(blocks.value) == str(full.value)


def eigenvalue_ground_state(space, params):
    """exact_ground_state with the cutoff gate decided by the probe's
    lowest eigenvalue alone: the reference for the Cholesky test."""
    energy, vec = _lowest_eigenpair(space.hamiltonian(params))
    probe = TruncatedHilbertSpace(space.n_electrons, space.photon_cutoff + 4)
    shift = abs(_lowest_energy(probe, params) - energy)
    if shift >= ENERGY_TOL:
        raise CutoffNotConverged(
            "ground energy not converged in photon number",
            photon_cutoff=space.photon_cutoff, energy_shift=shift)
    return energy, vec


def ground_outcome(solve, space, params):
    """What a ground solve returns or raises, as comparable bytes."""
    try:
        energy, vec = solve(space, params)
    except CutoffNotConverged as error:
        return "not converged", str(error), error.diagnostics
    return "solved", float(energy).hex(), vec.tobytes()


def test_cholesky_gate_decides_as_the_lowest_eigenvalue():
    cases = [(space, params_for_coupling(1.0 + detuning, g, space.n_electrons,
                                         **overrides))
             for space in ladder_spaces((8, 12, 16))
             for g, detuning, overrides in OPERATING_POINTS]
    cases.append((TruncatedHilbertSpace(2, 8), params_for_coupling(1.0, 0.48, 2)))
    for space, p in cases:
        assert (ground_outcome(exact_ground_state, space, p)
                == ground_outcome(eigenvalue_ground_state, space, p)), space
    # the cutoff really escalates at g = 0.48, with the same shift
    assert ground_outcome(exact_ground_state, *cases[-1])[0] == "not converged"


@pytest.mark.parametrize("detuning", [1e3, 1e9, 1e12, 1e14, 1e17, 1e20])
def test_rounding_guard_leaves_large_scales_to_eigenvalues(detuning,
                                                           count_calls):
    # the probe's rounding floor dim * eps * scale exceeds ENERGY_TOL / 4,
    # so no Cholesky test is trusted and the eigenvalues decide
    space, p = TruncatedHilbertSpace(2, 12), params_for_coupling(
        1.0 + detuning, 0.02, 2)
    expected = ground_outcome(eigenvalue_ground_state, space, p)
    calls = count_calls("cholesky", "eigvalsh")
    assert ground_outcome(exact_ground_state, space, p) == expected
    assert calls == {"cholesky": 0, "eigvalsh": 2}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lapack_call_budget_per_transition_table(n, count_calls):
    # a certified cutoff costs two Cholesky factorizations and no
    # eigenvalue solve beyond the ground and the two final-sector blocks
    p = params_for_coupling(0.8, 0.02, n)
    calls = count_calls("eigvalsh", "eigh", "cholesky")
    exact_transition_elements(TruncatedHilbertSpace(n, 12), p)
    assert calls == {"eigvalsh": 0, "cholesky": 2, "eigh": 3}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 10**6])
def test_lapack_call_budget_per_oracle_comparison(n, count_calls):
    # the perturbative side solves each subspace once: n_exc = 2 of the
    # ground sector and n_exc = 1, 2, 3, 4 of the final one (n_exc = 0
    # needs no solve)
    p = params_for_coupling(0.8, 0.02, n)
    calls = count_calls("eigvalsh", "eigh")
    extraction_strengths(p, range(3))
    assert calls == {"eigvalsh": 0, "eigh": 5}


@pytest.mark.parametrize("n", [2, 5, 8])
def test_lapack_call_budget_per_whole_comparison(n, count_calls):
    # the exact table's 3 eigh and 2 Cholesky factorizations at a
    # certified cutoff, plus the perturbative side's 5 eigh
    p = params_for_coupling(0.8, 0.02, n)
    calls = count_calls("eigvalsh", "eigh", "cholesky")
    assert compare_with_oracle(p).photon_cutoff == 12
    assert calls == {"eigvalsh": 0, "cholesky": 2, "eigh": 8}


@pytest.mark.parametrize("n_values", [(2,), (3,), (4, 7, 10**6)])
def test_lapack_call_budget_per_rate_group(n_values, count_calls,
                                           monkeypatch):
    # one rate group: n_exc = 2 of the ground sector, and n_exc = 1 and
    # its target n_exc = 3 of the final one; the final ground is never
    # asked for, its energy being the sector base energy
    asked = []

    def recorded(points, n_excs, _inner=extraction_strengths):
        asked.extend(n_excs)
        return _inner(points, n_excs)

    monkeypatch.setattr("gse.fermionic.extraction_strengths", recorded)
    points = ParamStack.of([params_for_coupling(1.0, 0.05, n)
                            for n in n_values])
    calls = count_calls("eigvalsh", "eigh")
    fermionic_rate_arrays(points)
    assert calls == {"eigvalsh": 0, "eigh": 3}
    assert asked == [1]


@pytest.mark.parametrize("n_values", [2, (2,), (3,), (4,), (10**6,),
                                      (4, 7, 10**6)])
def test_final_ground_energy_is_the_sector_base_energy(n_values):
    # the identity the rate path rests on: the n_exc = 0 energy of the
    # N - 1 sector is its base energy, bit for bit, at one point and on
    # stacks
    if isinstance(n_values, int):
        points = params_for_coupling(1.1, 0.05, n_values)
    else:
        points = ParamStack.of([params_for_coupling(1.1, 0.05, n)
                                for n in n_values])
    n = points.n_electrons
    _, [(energies, _, _)] = extraction_strengths(points, (0,))
    base = sector_base_energy(points, n - 1, (n - 1) / 2)
    expected = np.reshape(base, (-1, 1))
    got = np.reshape(energies, (-1, 1))
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
