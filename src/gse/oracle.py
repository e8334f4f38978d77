"""Brute-force truncated-Hilbert-space cross-check.

Small systems (up to eight electrons) are diagonalized exactly in the
collective-spin x photon product basis of the symmetric j = N/2 sector,
the one the N-electron ground state lives in; removing one electron
reaches only the j = (N - 1)/2 sector of N - 1 electrons.  A sector is
therefore named by (N, photon cutoff) alone.  Electron-removal matrix
elements out of the interacting ground state are compared against the
perturbative fermionic pipeline.  The perturbative side is one call of
``gse.fermionic.extraction_strengths`` over the final subspaces
n_exc = 0, 1, 2; every ``fermionic`` sweep row is its n_exc = 1 part.
At one operating point it returns built-in floats in nested lists.
Rows are labelled by ``subspace_labels`` on both sides.

Everything that depends only on a sector's shape, (N, photon cutoff),
is built once per process, into one cached read-only structure per
shape, from the integer quantum numbers k = m + j and gamma of each
basis state: the light-matter coupling from the spin ladder
sqrt((N - k)(k + 1)) and the photon ladder sqrt(gamma), the
excitation-parity index arrays and the slots of both parity blocks in
one flat buffer.  H has no entries between the blocks, so they are the
one layout; the dense Hamiltonian places them at their states' indices.
Removal is two shifted slices of the ground vector: no array, cached
or not, grows with the square of the dimension.

The convergence probe, at the cutoff raised by PHOTON_CUTOFF_STEP,
needs only to know whether the lowest energy fell by ENERGY_TOL = 1e-10:
one Cholesky factorization per parity block tests whether
H - (E - ENERGY_TOL / 2) is positive definite, which certifies the
cutoff without an eigenvalue.  When a factorization fails, or the
sector's rounding floor dim * eps * scale exceeds ENERGY_TOL / 4, the
lowest eigenvalue of each block decides.  The final sector is solved
one parity block at a time.  Only the ground solve is a dense ``eigh``
of the whole sector: the reported sum-rule residual is rounding noise,
and any change to the ground vector's last bits shows in it.  Those bits
also depend on the BLAS thread count, which importing ``gse`` fixes at
one, and on the CPU's OpenBLAS kernels (see the package docstring).
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CutoffNotConverged
from .fermionic import (extraction_strengths, sector_base_energy,
                        subspace_labels)
from .params import (MAX_CUTOFF, PHOTON_CUTOFF_STEP, SystemParams,
                     collective_coupling)

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
        for name in ("n_electrons", "photon_cutoff"):
            value = getattr(self, name)
            try:  # numpy integers are stored as built-in ints
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}") from None
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
        """Dense sector Hamiltonian including the electrostatic offset:
        the two blocks of ``parity_blocks`` placed at the states of
        ``parity_masks``, and zero between them.

        Raises ConfigurationError when an entry would overflow.
        """
        shape, base, _ = self._checked(params)
        h = np.zeros((self.dim, self.dim))
        for block, idx in zip(_blocks(shape, base, params),
                              (shape.even, shape.odd)):
            h[np.ix_(idx, idx)] = block
        return h

    def parity_blocks(self, params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
        """The even and odd excitation-parity blocks of ``hamiltonian``,
        built directly: entry for entry equal to
        ``hamiltonian(params)[np.ix_(idx, idx)]`` for each index array of
        ``parity_masks``.  H has no entries between the two blocks.
        """
        shape, base, _ = self._checked(params)
        return _blocks(shape, base, params)

    def parity_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays for even and odd total excitation (k + gamma)."""
        shape = _sector_structure(self.n_electrons, self.photon_cutoff)
        return shape.even, shape.odd

    def _checked(self, params: SystemParams
                 ) -> tuple[_SectorStructure, float, float]:
        """The sector's structure, its base energy and its rounding floor
        dim * eps * scale, scale = |top| + |base| + 2 chi coupling_max.

        Raises ConfigurationError when an entry would overflow.  Diagonal
        entries grow with k and gamma, so the base and the top state
        (N, cutoff) bound them; the top entry adds the base, so it is not
        finite when the base is not.  The largest coupling bounds the
        off-diagonal.
        """
        shape = _sector_structure(self.n_electrons, self.photon_cutoff)
        base = sector_base_energy(params, self.n_electrons,
                                  self.n_electrons / 2)
        top = _diagonal(params, self.n_electrons, self.photon_cutoff, base)
        coupling = params.chi * shape.coupling_max
        if not (math.isfinite(top) and math.isfinite(coupling)):
            raise ConfigurationError(
                f"sector Hamiltonian overflows (N={self.n_electrons}, "
                f"cutoff={self.photon_cutoff}, omega_0={params.omega_0!r}, "
                f"omega_c={params.omega_c!r}, chi={params.chi!r}, "
                f"omega_1={params.omega_1!r})")
        scale = abs(top) + abs(base) + 2.0 * abs(coupling)
        return shape, base, self.dim * sys.float_info.epsilon * scale


@dataclass(frozen=True)
class _SectorStructure:
    """Parameter-independent, read-only arrays of one (N, cutoff) sector,
    none longer than four entries a state: each basis state's integers k
    (``matter``) and gamma (``photons``); the nonzero entries of the
    coupling kron(2 S_x, a + a^dagger) in row-major order, and the
    largest; the states of each excitation parity; and the ``block_``
    slots of the diagonal (basis order) and the coupling in one flat
    buffer holding the even block, then the odd one.
    """

    matter: np.ndarray
    photons: np.ndarray
    coupling: np.ndarray
    coupling_max: float
    even: np.ndarray
    odd: np.ndarray
    block_diagonal: np.ndarray
    block_coupling_index: np.ndarray

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@functools.lru_cache(maxsize=128)
def _sector_structure(n_electrons: int, photon_cutoff: int) -> _SectorStructure:
    """The one basis layout: state (k, gamma), k = m + j, has index
    k (cutoff + 1) + gamma.  Built from the integers alone: 2 S_x couples
    k to k + 1 by sqrt((N - k)(k + 1)), a + a^dagger couples gamma - 1 to
    gamma by sqrt(gamma), and a state's parity is that of k + gamma."""
    n_photon = photon_cutoff + 1
    k = np.arange(n_electrons)
    spin = np.sqrt((n_electrons - k) * (k + 1))
    photon = np.sqrt(np.arange(1, n_photon))
    coupling = np.kron(np.diag(spin, -1) + np.diag(spin, 1),
                       np.diag(photon, -1) + np.diag(photon, 1)).ravel()
    index = np.flatnonzero(coupling)

    matter = np.repeat(np.arange(n_electrons + 1), n_photon)
    photons = np.tile(np.arange(n_photon), n_electrons + 1)
    parity = (matter + photons) % 2
    even, odd = np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)

    # each state's block size, its block's offset in the buffer and its
    # position in the block
    size = np.array([even.size, odd.size])[parity]
    offset = np.array([0, even.size ** 2])[parity]
    position = np.empty(matter.size, dtype=np.intp)
    position[even], position[odd] = np.arange(even.size), np.arange(odd.size)
    rows, cols = np.divmod(index, matter.size)
    return _SectorStructure(
        matter=matter, photons=photons, coupling=coupling[index],
        coupling_max=float(coupling.max(initial=0.0)),
        even=even, odd=odd, block_diagonal=offset + position * (size + 1),
        block_coupling_index=(offset[rows] + position[rows] * size[rows]
                              + position[cols]))


def _diagonal(params: SystemParams, matter, photons, base: float):
    """Diagonal entry omega_0 k + omega_c gamma + base of states (k, gamma)."""
    return params.omega_0 * matter + params.omega_c * photons + base


def _blocks(shape: _SectorStructure, base: float,
            params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks, views of one buffer: chi * coupling at
    the coupling slots and every state's diagonal entry at its slot."""
    n_even, n_odd = shape.even.size, shape.odd.size
    flat = np.zeros(n_even * n_even + n_odd * n_odd)
    flat[shape.block_coupling_index] = params.chi * shape.coupling
    flat[shape.block_diagonal] = _diagonal(params, shape.matter,
                                           shape.photons, base)
    return (flat[:n_even * n_even].reshape(n_even, n_even),
            flat[n_even * n_even:].reshape(n_odd, n_odd))


def _removed(space: TruncatedHilbertSpace, vec: np.ndarray) -> np.ndarray:
    """Collective single-electron removal of ``vec`` into the N - 1
    sector: |k, gamma> goes to |k, gamma> and |k - 1, gamma> with
    amplitudes sqrt((N - k)/N) and sqrt(k/N), the N - 1 sector's states
    being the N sector's first N (cutoff + 1): two slices of ``vec``,
    so each entry rounds alike on every CPU, with no BLAS call."""
    n, step = space.n_electrons, space.photon_cutoff + 1
    k = _sector_structure(n, space.photon_cutoff).matter[:-step]
    return (np.sqrt((n - k) / n) * vec[:-step]
            + np.sqrt((k + 1) / n) * vec[step:])


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
    return min(float(np.linalg.eigvalsh(block)[0])
               for block in space.parity_blocks(params))


def _spectrum_above(space: TruncatedHilbertSpace, params: SystemParams,
                    bound: float) -> bool:
    """Whether every eigenvalue of the sector is certainly above
    ``bound``: by Sylvester's law of inertia, exactly when H - bound is
    positive definite, which one Cholesky factorization per parity block
    decides.  Only trusted when the sector's rounding floor is at most
    ENERGY_TOL / 4; otherwise False, and the caller falls back to
    eigenvalues.
    """
    shape, base, rounding = space._checked(params)
    if rounding > ENERGY_TOL / 4:
        return False
    for block in _blocks(shape, base, params):
        block.flat[::block.shape[0] + 1] -= bound
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            return False
    return True


def exact_ground_state(space: TruncatedHilbertSpace,
                       params: SystemParams) -> tuple[float, np.ndarray]:
    """Ground energy and vector, certified against cutoff truncation.

    The lowest energy is checked again with the photon cutoff raised by
    PHOTON_CUTOFF_STEP, the step ``compare_with_oracle`` escalates by.
    H at the raised cutoff contains H at this one, so its lowest energy
    cannot be higher; one Cholesky factorization per parity block
    first tests whether it lies above energy - ENERGY_TOL / 2, which
    certifies the cutoff without computing an eigenvalue.  If either
    factorization fails, or the sector's rounding floor is above
    ENERGY_TOL / 4, the lowest energy is computed (eigenvalues only, one
    parity block at a time); if it moves by 1e-10 or more the truncation
    is not trusted and CutoffNotConverged is raised.
    """
    energy, vec = _lowest_eigenpair(space.hamiltonian(params))
    probe = TruncatedHilbertSpace(space.n_electrons,
                                  space.photon_cutoff + PHOTON_CUTOFF_STEP)
    if not _spectrum_above(probe, params, energy - ENERGY_TOL / 2):
        shift = abs(_lowest_energy(probe, params) - energy)
        if shift >= ENERGY_TOL:
            raise CutoffNotConverged(
                "ground energy not converged in photon number",
                photon_cutoff=space.photon_cutoff, energy_shift=shift)
    return energy, vec


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
    if n < 2:
        raise ConfigurationError(
            f"removing an electron needs at least 2 electrons, got {n}")
    final = TruncatedHilbertSpace(n - 1, space.photon_cutoff)
    energy_g, ground = exact_ground_state(space, params)

    (evals_even, evecs_even), (evals_odd, evecs_odd) = map(
        np.linalg.eigh, final.parity_blocks(params))

    kappa = float(n)
    removed = _removed(space, ground)
    even_idx, odd_idx = final.parity_masks()
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

    The photon cutoff escalates by PHOTON_CUTOFF_STEP until the ground
    energy is stable to ENERGY_TOL, up to MAX_CUTOFF; a starting cutoff
    above MAX_CUTOFF is a ConfigurationError.
    """
    if photon_cutoff > MAX_CUTOFF:
        raise ConfigurationError(
            f"photon_cutoff must be <= {MAX_CUTOFF}, got {photon_cutoff}")
    cutoff = photon_cutoff
    while True:
        space = TruncatedHilbertSpace(params.n_electrons, cutoff)
        try:
            table = exact_transition_elements(space, params)
            break
        except CutoffNotConverged:
            cutoff += PHOTON_CUTOFF_STEP
            if cutoff > MAX_CUTOFF:
                raise

    # final subspaces n_exc = 0, 1, 2: their states in the exact table's order
    ground_energy, finals = extraction_strengths(params, range(3))
    base = finals[0][0][0]
    omega_pt = [e - base for energies, _, _ in finals for e in energies]
    strength_pt = [s for _, _, strengths in finals for s in strengths]
    rows = []
    for label, omega_abs, strength, omega, approx in zip(
            table.labels, table.energies, table.strengths, omega_pt,
            strength_pt, strict=True):
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
        n_electrons=space.n_electrons,
        photon_cutoff=space.photon_cutoff,
        coupling=collective_coupling(params),
        ground_energy_exact=table.ground_energy,
        ground_energy_pt=ground_energy[0],
        sum_rule_residual=table.sum_rule_residual,
        rows=tuple(rows),
    )
