"""Brute-force truncated-Hilbert-space cross-check.

Small systems (up to eight electrons) are diagonalized exactly in the
collective-spin x photon product basis of the symmetric j = N/2 sector,
the one the N-electron ground state lives in; removing one electron
reaches only the j = (N - 1)/2 sector of N - 1 electrons.  A sector is
therefore named by (N, photon cutoff) alone.  Electron-removal matrix
elements out of the interacting ground state are compared against the
perturbative fermionic pipeline.  The perturbative side is one call of
``gse.fermionic.extraction_strengths`` over the final subspaces
n_exc = 0, 1, 2, the same recipe that gives every ``fermionic`` sweep
row; rows are labelled by ``subspace_labels`` on both sides.

Everything that depends only on a sector's shape, (N, photon cutoff),
is built once per process and kept read-only: the matter and photon
numbers of each basis state, the nonzero entries of the light-matter
coupling, the excitation-parity index arrays and the removal operator
into the N - 1 sector.  A sector Hamiltonian is then one scatter of
parameter-scaled entries, bit-equal to the Kronecker-product
construction.  The cutoff+4 convergence probe needs only the lowest
energy, so it takes eigenvalues alone, block by parity (H has no entries
between the blocks), and the final sector is solved one parity block at
a time as well.  Only the ground solve stays a full dense ``eigh`` call
on the unchanged matrix: the reported sum-rule residual is rounding
noise, and any change to the ground vector's last bits shows in it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CutoffNotConverged
from .fermionic import extraction_strengths, sector_base_energy, subspace_labels
from .params import SystemParams

__all__ = [
    "OracleReport",
    "TransitionRow",
    "TransitionTable",
    "TruncatedHilbertSpace",
    "compare_with_oracle",
    "exact_ground_state",
    "exact_transition_elements",
]

MAX_ELECTRONS = 8
MIN_CUTOFF = 8
MAX_CUTOFF = 40
ENERGY_TOL = 1e-10


@dataclass(frozen=True)
class TruncatedHilbertSpace:
    """Product basis |m> x |gamma> of the symmetric j = N/2 sector of N
    electrons, photons truncated at ``photon_cutoff``.

    The basis order is ``_sector_structure``'s; it matters only for
    reproducibility of raw eigenvectors.
    """

    n_electrons: int
    photon_cutoff: int

    def __post_init__(self) -> None:
        if self.n_electrons < 1 or self.n_electrons > MAX_ELECTRONS:
            raise ConfigurationError(
                f"exact diagonalization supports 1..{MAX_ELECTRONS} electrons, "
                f"got {self.n_electrons}")
        if self.photon_cutoff < MIN_CUTOFF:
            raise ConfigurationError(
                f"photon_cutoff must be >= {MIN_CUTOFF}, got {self.photon_cutoff}")

    @property
    def dim(self) -> int:
        return (self.n_electrons + 1) * (self.photon_cutoff + 1)

    def hamiltonian(self, params: SystemParams) -> np.ndarray:
        """Dense sector Hamiltonian including the electrostatic offset.

        Raises ConfigurationError when an entry would overflow.  Diagonal
        entries grow with m + j and gamma, so the first and last basis
        states bound them; the largest coupling bounds the off-diagonal.
        """
        shape = _sector_structure(self.n_electrons, self.photon_cutoff)
        base = sector_base_energy(params, self.n_electrons,
                                  self.n_electrons / 2)
        top = (params.omega_0 * float(shape.matter[-1])
               + params.omega_c * float(shape.photons[-1]) + base)
        if not (math.isfinite(top) and math.isfinite(base)
                and math.isfinite(params.chi * shape.coupling_max)):
            raise ConfigurationError(
                f"sector Hamiltonian overflows (N={self.n_electrons}, "
                f"cutoff={self.photon_cutoff}, omega_0={params.omega_0!r}, "
                f"omega_c={params.omega_c!r}, chi={params.chi!r}, "
                f"omega_1={params.omega_1!r})")

        h = np.zeros((self.dim, self.dim))
        h.flat[shape.coupling_index] = params.chi * shape.coupling
        h.flat[::self.dim + 1] = (params.omega_0 * shape.matter
                                  + params.omega_c * shape.photons + base)
        return h

    def parity_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays for even and odd total excitation (m + j + gamma)."""
        shape = _sector_structure(self.n_electrons, self.photon_cutoff)
        return shape.even, shape.odd


@dataclass(frozen=True)
class _SectorStructure:
    """Parameter-independent arrays of one (N, cutoff) sector, per basis
    state in basis order; the coupling is kron(2 S_x, a + a^dagger) as
    flat indices and values of its nonzero entries."""

    matter: np.ndarray
    photons: np.ndarray
    coupling_index: np.ndarray
    coupling: np.ndarray
    coupling_max: float
    even: np.ndarray
    odd: np.ndarray


@functools.lru_cache(maxsize=128)
def _sector_structure(n_electrons: int, photon_cutoff: int) -> _SectorStructure:
    """The one basis layout: state (m, gamma) of the j = N/2 sector has
    index (m + j)(cutoff + 1) + gamma."""
    j = n_electrons / 2.0
    n_matter = n_electrons + 1
    n_photon = photon_cutoff + 1
    m = -j + np.arange(n_matter)

    ladder = np.zeros((n_matter, n_matter))
    for im in range(n_matter - 1):
        mm = m[im]
        ladder[im + 1, im] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    s_x2 = ladder + ladder.T

    lower = np.zeros((n_photon, n_photon))
    for gamma in range(1, n_photon):
        lower[gamma - 1, gamma] = math.sqrt(gamma)
    x_ph = lower + lower.T

    coupling = np.kron(s_x2, x_ph).ravel()
    index = np.flatnonzero(coupling)
    matter = np.repeat(m + j, n_photon)
    photons = np.tile(np.arange(n_photon), n_matter)
    excitation = np.repeat(np.arange(n_matter), n_photon) + photons
    arrays = dict(
        matter=matter, photons=photons, coupling_index=index,
        coupling=coupling[index],
        even=np.flatnonzero(excitation % 2 == 0),
        odd=np.flatnonzero(excitation % 2 == 1))
    for array in arrays.values():
        array.flags.writeable = False
    return _SectorStructure(coupling_max=float(coupling.max(initial=0.0)),
                            **arrays)


def _lowest_eigenpair(h: np.ndarray) -> tuple[float, np.ndarray]:
    energies, vectors = np.linalg.eigh(h)
    vec = vectors[:, 0]
    pivot = np.argmax(np.abs(vec))
    if vec[pivot] < 0.0:
        vec = -vec
    return float(energies[0]), vec


def _lowest_energy(space: TruncatedHilbertSpace, params: SystemParams) -> float:
    """Lowest sector eigenvalue: H has no entries between the even and
    odd excitation-parity blocks, so it is the lower of their minima."""
    h = space.hamiltonian(params)
    return min(float(np.linalg.eigvalsh(h[np.ix_(idx, idx)])[0])
               for idx in space.parity_masks())


def exact_ground_state(space: TruncatedHilbertSpace,
                       params: SystemParams) -> tuple[float, np.ndarray]:
    """Ground energy and vector, certified against cutoff truncation.

    The lowest energy is found again with the photon cutoff raised by
    four (eigenvalues only, one parity block at a time); if it moves by
    1e-10 or more the truncation is not trusted and CutoffNotConverged
    is raised.
    """
    energy, vec = _lowest_eigenpair(space.hamiltonian(params))
    probe = TruncatedHilbertSpace(space.n_electrons, space.photon_cutoff + 4)
    shift = abs(_lowest_energy(probe, params) - energy)
    if shift >= ENERGY_TOL:
        raise CutoffNotConverged(
            "ground energy not converged in photon number",
            photon_cutoff=space.photon_cutoff, energy_shift=shift)
    return energy, vec


@functools.lru_cache(maxsize=64)
def _removal_operator(n_electrons: int, photon_cutoff: int) -> np.ndarray:
    """Collective single-electron removal, N sector -> N - 1 sector.

    Acting on |j, m> it moves to the j - 1/2 ladder, m -> m +- 1/2 with
    amplitudes sqrt((N - k)/N) and sqrt(k/N), k = m + j; the photon
    state is untouched.  The N - 1 sector's states are the N sector's
    with k < N, in order, so m + 1/2 keeps a state's index and m - 1/2
    takes the i-th state with k > 0 to the i-th with k < N.
    """
    k = _sector_structure(n_electrons, photon_cutoff).matter
    kept, lowered = np.flatnonzero(k < n_electrons), np.flatnonzero(k > 0)
    op = np.zeros((kept.size, k.size))
    op[kept, kept] = np.sqrt((n_electrons - k[kept]) / n_electrons)
    op[kept, lowered] = np.sqrt(k[lowered] / n_electrons)
    op.flags.writeable = False
    return op


@dataclass(frozen=True)
class TransitionTable:
    """Exact removal strengths out of the interacting ground state."""

    ground_energy: float
    labels: tuple[str, ...]
    energies: tuple[float, ...]
    strengths: tuple[float, ...]
    sum_rule_residual: float


def exact_transition_elements(space: TruncatedHilbertSpace,
                              params: SystemParams) -> TransitionTable:
    """Removal strengths N*|<f|O|G>|^2 from the ground of ``space`` into
    the labelled states of the N - 1 sector at the same photon cutoff.

    Final eigenstates are classified by excitation parity: the sector
    ground state and the double-polariton triplet are even, the two
    single polaritons odd.  Labels are ``subspace_labels`` of the final
    sector and follow energy order within each parity class; energies[0]
    is the final sector's ground.  The completeness sum over every final
    eigenstate is returned as a residual against its exact value N.  A
    one-electron space has no final sector: ConfigurationError, raised
    before any solve.
    """
    n = space.n_electrons
    final = TruncatedHilbertSpace(n - 1, space.photon_cutoff)
    energy_g, ground = exact_ground_state(space, params)

    h_final = final.hamiltonian(params)
    even_idx, odd_idx = final.parity_masks()
    evals_even, evecs_even = np.linalg.eigh(h_final[np.ix_(even_idx, even_idx)])
    evals_odd, evecs_odd = np.linalg.eigh(h_final[np.ix_(odd_idx, odd_idx)])

    kappa = float(n)
    removed = _removal_operator(n, space.photon_cutoff) @ ground
    amp_even = evecs_even.T @ removed[even_idx]
    amp_odd = evecs_odd.T @ removed[odd_idx]

    total = kappa * (float(amp_even @ amp_even) + float(amp_odd @ amp_odd))
    residual = abs(total - kappa * float(removed @ removed))

    labels, energies, strengths = [], [], []
    # the ground (n_exc = 0) and the doubles (2) are even, the singles odd
    for n_exc, evals, amps, first in ((0, evals_even, amp_even, 0),
                                      (1, evals_odd, amp_odd, 0),
                                      (2, evals_even, amp_even, 1)):
        for i, label in enumerate(subspace_labels(n_exc, n - 1), first):
            labels.append(label)
            energies.append(float(evals[i]))
            strengths.append(kappa * float(amps[i]) ** 2)

    return TransitionTable(
        ground_energy=energy_g,
        labels=tuple(labels),
        energies=tuple(energies),
        strengths=tuple(strengths),
        sum_rule_residual=residual,
    )


@dataclass(frozen=True)
class TransitionRow:
    label: str
    omega_exact: float
    omega_pt: float
    strength_exact: float
    strength_pt: float
    rel_error: float


@dataclass(frozen=True)
class OracleReport:
    n_electrons: int
    photon_cutoff: int
    coupling: float
    ground_energy_exact: float
    ground_energy_pt: float
    sum_rule_residual: float
    rows: tuple[TransitionRow, ...]

    @property
    def max_single_rel_error(self) -> float:
        singles = subspace_labels(1, self.n_electrons - 1)
        return max(row.rel_error for row in self.rows if row.label in singles)


def compare_with_oracle(params: SystemParams,
                        photon_cutoff: int = 12) -> OracleReport:
    """Exact vs perturbative removal table for one small system.

    The photon cutoff escalates in steps of four until the ground
    energy is stable to 1e-10, up to a hard cap of 40; a starting
    cutoff above the cap is a ConfigurationError.
    """
    n = params.n_electrons
    if n < 2:
        raise ConfigurationError("oracle comparison needs at least 2 electrons")
    if photon_cutoff > MAX_CUTOFF:
        raise ConfigurationError(
            f"photon_cutoff must be <= {MAX_CUTOFF}, got {photon_cutoff}")
    cutoff = photon_cutoff
    while True:
        try:
            table = exact_transition_elements(
                TruncatedHilbertSpace(n, cutoff), params)
            break
        except CutoffNotConverged:
            cutoff += 4
            if cutoff > MAX_CUTOFF:
                raise

    # final subspaces n_exc = 0, 1, 2: their states in the exact table's order
    ground_energy, finals = extraction_strengths(params, range(3))
    omega_pt = np.concatenate([e for e, _, _ in finals]) - finals[0][0][0]
    strength_pt = np.concatenate([s for _, _, s in finals])
    rows = []
    for label, omega_abs, strength, omega, approx in zip(
            table.labels, table.energies, table.strengths, omega_pt.tolist(),
            strength_pt.tolist(), strict=True):
        scale = max(abs(strength), abs(approx))
        rel = abs(approx - strength) / scale if scale > 0.0 else 0.0
        rows.append(TransitionRow(
            label=label,
            omega_exact=omega_abs - table.energies[0],
            omega_pt=omega,
            strength_exact=strength,
            strength_pt=approx,
            rel_error=rel,
        ))
    return OracleReport(
        n_electrons=n,
        photon_cutoff=cutoff,
        coupling=params.chi * math.sqrt(n),
        ground_energy_exact=table.ground_energy,
        ground_energy_pt=float(ground_energy[0]),
        sum_rule_residual=table.sum_rule_residual,
        rows=tuple(rows),
    )
