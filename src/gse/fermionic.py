"""Fermionic model: Tavis-Cummings subspaces beyond the rotating wave.

The collective electronic system at fixed total angular momentum j is a
ladder of bare-excitation subspaces n = n_ph + n_matter. The rotating
part of the interaction acts inside each subspace through a symmetric
tridiagonal kernel; the counter-rotating part connects n to n +- 2 and
is treated in first-order perturbation theory ("dressing"). Electron
extraction/injection matrix elements between dressed states of the N-
and (N +- 1)-electron sectors follow from a Clebsch-Gordan
decomposition and collapse to four (Delta N, Delta j) branches built
from pseudo-inner products of the coefficient maps.

Kernels, eigensolves, dressing and brackets work on stacks: leading
array axes index operating points, and one point is a stack without
leading axes, so a single evaluation and a whole sweep run the same
arithmetic.

Index conventions, used everywhere below:
* k = number of matter excitations inside a subspace (kernel index),
  gamma = photon number; k = n - gamma. Coefficient vectors u_gamma(n)
  are photon-indexed; kernels are built matter-indexed as printed and
  eigenvectors are reversed on output.
* m = -j + n - gamma is always derived, never stored.
* Eigenvector sign: the most-photonic nonvanishing component is made
  positive, which reproduces the (cos theta, sin theta) form of the
  n=1 polaritons with tan(theta_plus) given by `theta_plus`.

All rates are returned in units of Gamma_el.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDenominator,
    InvalidQuantumNumbers,
    Unstable,
    UnsupportedDoubleOccupancy,
)
from .params import ParamStack, SystemParams, collective_coupling

__all__ = [
    "DressedState",
    "FermionicRates",
    "chemical_gate",
    "sector_base_energy",
    "subspace_labels",
    "dressed_subspace",
    "subspace_bracket",
    "extraction_strengths",
    "theta_plus",
    "clebsch_coeffs",
    "transition_rate_fermionic",
    "dressed_sector_states",
    "dressed_ground_state",
    "fermionic_rate_arrays",
    "gse_rate_pipeline",
    "gse_rate_closed_form",
]

SQRT2 = math.sqrt(2.0)

_DENOM_FLOOR = 1e-9


def _half_int(x: float) -> bool:
    return abs(2 * x - round(2 * x)) < 1e-12


@dataclass(frozen=True, eq=False)
class DressedState:
    """First-order dressed eigenstate: coefficient blocks over (n, gamma).

    `blocks` maps each bare-excitation number n to (gamma_min,
    coefficients of gamma = gamma_min, gamma_min + 1, ... as a column of
    shape (d_n, 1)). `energy` is the unperturbed subspace eigenvalue (it
    includes the sector base energy, so differences across sectors are
    physical). `norm_sq` records sum |u|^2 = 1 + O(beta^2); it is
    metadata, the state is deliberately not renormalized.
    """
    j: float
    n_electrons: int
    n_exc: int
    label: str
    energy: float
    blocks: Mapping[int, tuple[int, np.ndarray]]

    @property
    def u(self) -> dict[tuple[int, int], float]:
        """Coefficients keyed by (n, gamma): the whole source subspace
        and the nonzero admixtures."""
        return {(n, gmin + i): value
                for n, (gmin, coeffs) in self.blocks.items()
                for i, value in enumerate(coeffs[:, 0].tolist())
                if value != 0.0 or n == self.n_exc}

    @property
    def norm_sq(self) -> float:
        return sum(v * v for v in self.u.values())


def sector_base_energy(params: SystemParams | ParamStack, n_electrons, j):
    """E0(N) - j*omega_0: the energy of |j, m=-j, 0 photons>.

    Elementwise when `params` is a ParamStack or the labels are arrays.
    """
    e0 = params.omega_1 * n_electrons + params.omega_0 * (n_electrons / 2)
    return e0 - j * params.omega_0


# ---------------------------------------------------------------------------
# stacked subspace kernels, eigenbases and first-order dressing
#
# Leading axes index operating points. Per-point values (the fields of
# `params`, `n_electrons`, `two_j`, `base`, j) are plain numbers for one
# point and carry a trailing axis of length 1 in a stack, so they broadcast
# against the index of a subspace. `clamp`, which `_clamp` gives, is
# min(2j, n) for every n a call touches and shared by all points, so the
# subspace shapes `_span` gives agree.
# ---------------------------------------------------------------------------

def _clamp(two_j, n_exc: int):
    """Matter clamp of subspace n_exc: the dressing reaches n_exc +- 2,
    and its top subspace sets the clamp min(2j, n_exc + 2)."""
    return np.minimum(two_j, n_exc + 2)


def _span(n_exc: int, clamp: int) -> tuple[int, int]:
    """(gamma_min, dim) of subspace n_exc: at most `clamp` matter
    excitations, so the photon number runs from n_exc - min(n_exc, clamp)
    to n_exc."""
    matter = min(n_exc, clamp)
    return n_exc - matter, matter + 1


@functools.lru_cache(maxsize=64)
def _ladder(n_exc: int, dim: int) -> tuple[np.ndarray, ...]:
    """Read-only row constants of an n_exc kernel: photon count n - k and
    matter count k of each row; for the rows below the first, k - 1 and
    sqrt(n - k + 1)."""
    k = np.arange(dim, dtype=float)
    rows = (n_exc - k, k, k[1:] - 1, np.sqrt(n_exc - k[1:] + 1))
    for row in rows:
        row.flags.writeable = False
    return rows


def _kernels(params, n_exc: int, clamp: int, two_j, base) -> np.ndarray:
    """Symmetric tridiagonal kernels of subspace n_exc, matter-indexed.

    Diagonal (n-k)*omega_c + k*omega_0 + base; off-diagonal
    chi*sqrt(n-k+1)*sqrt(k(2j-k+1)).
    """
    _, dim = _span(n_exc, clamp)
    photons, matter, below, root = _ladder(n_exc, dim)
    diag = (photons * params.omega_c + matter * params.omega_0) + base
    # row-major flat view: the diagonal has stride dim + 1, the upper and
    # lower off-diagonals start at 1 and at dim
    flat = np.zeros(diag.shape[:-1] + (dim * dim,))
    flat[..., ::dim + 1] = diag
    if dim > 1:
        off = params.chi * root * np.sqrt(matter[1:] * (two_j - below))
        flat[..., 1::dim + 1] = off
        flat[..., dim::dim + 1] = off
    return flat.reshape(diag.shape + (dim,))


def _eigenbases(kernels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues; photon-indexed eigenvectors whose
    most-photonic nonzero component is positive."""
    energies, vecs = np.linalg.eigh(kernels)
    # matter row k holds photon number n - k, so the most photonic nonzero
    # component is the first nonzero row: row 0 unless a coupling vanishes
    lead = vecs[..., :1, :]
    if lead.all():
        flip = lead < 0.0
    else:
        negative = vecs < 0.0
        flip = negative.any(axis=-2) & (np.argmax(negative, axis=-2)
                                        == np.argmax(vecs != 0.0, axis=-2))
        flip = flip[..., None, :]
    np.negative(vecs, out=vecs, where=flip)
    return energies, vecs[..., ::-1, :]


def theta_plus(omega_0: float, omega_c: float, g: float) -> float:
    """Mixing angle of the upper n=1 polariton, tan = (-Delta+R)/(2g)."""
    delta = omega_0 - omega_c
    return math.atan2(-delta + math.hypot(2 * g, delta), 2 * g)


def _ordered_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """Sum along a negative `axis` strictly in index order, so that a
    stack and a single point round alike (np.sum may pair terms)."""
    return np.add.accumulate(terms, axis=axis)[
        (..., -1) + (slice(None),) * (-1 - axis)]


@functools.lru_cache(maxsize=64)
def _radicands(n: int, gamma: range,
               raising: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only integer rows of `_counter_rotating`: the ladder factor
    and the shift that two_j takes, per source photon number."""
    if raising:
        ladder = np.array([(g + 1) * (n - g + 1) for g in gamma], dtype=float)
        shift = np.array([g - n for g in gamma], dtype=float)
    else:
        ladder = np.array([g * (n - g) for g in gamma], dtype=float)
        shift = np.array([g - n + 1 for g in gamma], dtype=float)
    ladder.flags.writeable = shift.flags.writeable = False
    return ladder, shift


def _counter_rotating(chi, two_j, n: int, gamma: range, raising: bool):
    """A_+ (raising) or A_- out of (n, gamma), for source photon numbers
    gamma inside the subspace. The radicands are exact integers."""
    ladder, shift = _radicands(n, gamma, raising)
    return chi * np.sqrt(ladder * (two_j + shift))


class _Sector:
    """One (N, j) sector at an operating point or a stack of them.

    Each subspace is solved once, on first use, and kept as long as the
    object lives, which is one call of `dressed_subspace` or
    `extraction_strengths`. The solve depends on the matter clamp only
    through the dimension, so (n_exc, dim) is its key.
    """

    def __init__(self, params, n_electrons, two_j):
        self.params, self.two_j = params, two_j
        self.base = sector_base_energy(params, n_electrons, two_j / 2)
        two_js = np.asarray(two_j)
        self._two_j_range = two_js.min(), two_js.max()
        self._solved = {}

    def clamp(self, n_exc: int) -> int:
        """The `_clamp` of subspace n_exc, shared by every point."""
        low, high = _clamp(self._two_j_range, n_exc).tolist()
        if low != high:
            raise ConfigurationError(f"a stack with matter clamps {low:g} "
                                     f"to {int(high)} in subspace {n_exc}")
        return int(high)

    def solve(self, n_exc: int, clamp: int) -> tuple[np.ndarray, np.ndarray]:
        """`_subspace` of subspace n_exc."""
        key = n_exc, _span(n_exc, clamp)[1]
        if key not in self._solved:
            self._solved[key] = _subspace(self.params, n_exc, clamp,
                                          self.two_j, self.base)
        return self._solved[key]


def _subspace(params, n_exc: int, clamp: int, two_j,
              base) -> tuple[np.ndarray, np.ndarray]:
    """`_eigenbases` of the subspace kernels."""
    if n_exc == 0:  # |m = -j> without photons, at the sector base energy
        energies = base + np.zeros(1)
        return energies, np.ones(energies.shape + (1,))
    return _eigenbases(_kernels(params, n_exc, clamp, two_j, base))


def _dress(sector: _Sector, n_exc: int,
           read: set[int] | None = None) -> tuple[np.ndarray, dict]:
    """Energies and first-order admixture of every eigenstate of
    subspace n_exc of `sector`.

    With W = V|beta> for all source states beta as columns, the n +- 2
    blocks are U = -V_t ((V_t^T W) / (E_t - E_beta)). A state the
    counter-rotating terms do not reach stays undressed; for any other,
    an energy denominator below 1e-9 is rejected rather than
    regularized. Returns the ascending energies (..., d) and {n:
    (gamma_min, (..., d_n, d))}; column s belongs to eigenstate s.

    `read`, when given, names the blocks a bracket reads. A target
    block outside it is only checked: its subspace is solved and its
    denominators are rejected as above, but it is neither built nor
    returned.
    """
    clamp = sector.clamp(n_exc)
    energies, vecs = sector.solve(n_exc, clamp)
    two_j, chi = sector.two_j, sector.params.chi
    gmin, _ = _span(n_exc, clamp)
    blocks = {n_exc: (gmin, vecs)}
    for step in (+2, -2):
        n_t = n_exc + step
        if n_t < 0:
            continue
        t_gmin, t_dim = _span(n_t, clamp)
        # source row i (photon gmin + i) feeds target row i + shift, which
        # holds one photon more (step +2) or less (step -2)
        shift = gmin + step // 2 - t_gmin
        lo = max(0, -shift)
        hi = min(vecs.shape[-1], t_dim - shift)
        if lo >= hi:
            continue
        t_energies, t_vecs = sector.solve(n_t, clamp)
        amp = _counter_rotating(chi, two_j, n_exc,
                                range(gmin + lo, gmin + hi), step > 0)
        # the rows of W = V|beta> that can be nonzero, and the target
        # basis on them
        w = amp[..., None] * vecs[..., lo:hi, :]
        t_rows = t_vecs[..., lo + shift:hi + shift, :]
        denom = t_energies[..., :, None] - energies[..., None, :]
        close = np.abs(denom) < _DENOM_FLOOR
        if close.any():
            reached = w.any(axis=-2)[..., None, :]
            close &= reached
            if close.any():
                bad = close.any(axis=(-2, -1))
                j = np.broadcast_to(two_j, bad.shape + (1,))[bad][0, 0] / 2
                raise DegenerateDenominator(
                    f"|E_q - E_beta| = {np.abs(denom[close]).min():.3g} below "
                    f"{_DENOM_FLOOR} for target sector n={n_t}, j={j}")
            denom = np.where(reached, denom, 1.0)  # unreached: 0 / 1
        if read is not None and n_t not in read:
            continue
        overlap = _ordered_sum(t_rows[..., :, :, None] * w[..., :, None, :],
                               axis=-3)
        coef = overlap / denom
        blocks[n_t] = (t_gmin, -_ordered_sum(
            t_vecs[..., :, :, None] * coef[..., None, :, :], axis=-2))
    return energies, blocks


def dressed_subspace(params, n_electrons, two_j,
                     n_exc: int) -> tuple[np.ndarray, dict]:
    """Energies and first-order dressed blocks of every eigenstate of one
    (N, j, n_exc) subspace, at one operating point or a stack of them.

    `params` is a SystemParams or a ParamStack whose columns carry a
    trailing axis of length 1; `n_electrons` and `two_j` are per point
    likewise, and the energies include their `sector_base_energy`. A stack
    whose points differ in the matter clamp is a ConfigurationError.
    Returns the ascending energies (..., d) and {n: (gamma_min, (..., d_n,
    d))}, column s belonging to eigenstate s (labels from
    `subspace_labels`); `subspace_bracket` takes the blocks.
    """
    return _dress(_Sector(params, n_electrons, two_j), n_exc)


# ---------------------------------------------------------------------------
# Clebsch-Gordan machinery
# ---------------------------------------------------------------------------

def _cg(j, m, branch: str, column: int):
    # column 0 (C) or 1 (D) of clebsch_coeffs, without the checks,
    # elementwise
    if branch == "-":
        return np.sqrt(((j + m) if column else (j - m)) / (2 * j))
    if column:
        return -np.sqrt((j - m + 1) / (2 * j + 2))
    return np.sqrt((j + m + 1) / (2 * j + 2))


def clebsch_coeffs(j_total: float, m_total: float,
                   branch: str) -> tuple[float, float]:
    """(C, D) coefficients coupling j2 x 1/2 -> (j_total, m_total).

    C = <j2, M+1/2; 1/2, -1/2 | J, M> and D = <j2, M-1/2; 1/2, +1/2 |
    J, M>, with branch '+' meaning j2 = J + 1/2 and '-' meaning
    j2 = J - 1/2. Exact table values, including the minus sign of D on
    the '+' branch.
    """
    j, m = j_total, m_total
    if not (_half_int(j) and _half_int(m)) or j < 0 or abs(m) > j + 1e-12:
        raise InvalidQuantumNumbers(f"invalid (J, M) = ({j}, {m})")
    if branch == "-" and j < 0.5:
        raise InvalidQuantumNumbers("branch '-' needs J >= 1/2")
    if branch not in ("+", "-"):
        raise InvalidQuantumNumbers(
            f"branch must be '+' or '-', got {branch!r}")
    return float(_cg(j, m, branch, 0)), float(_cg(j, m, branch, 1))


# (Delta N, Delta j > 0) -> the bracket's two pseudo-inner products
# <A, B>^x_F = sum_{n, gamma} u^B_gamma(n+x) u^A_gamma(n) F(m), as
# (x, shift, column). F is column 0 (C) or 1 (D) of clebsch_coeffs,
# taken at (j_A, m) for extraction and at (j_B, m + shift) for injection,
# and vanishes unless |m| <= j_A and |m + shift| <= j_B. For m inside
# A's ladder the second bound fails only where F's radicand is exactly
# zero, so F needs no mask.
_BRACKET_TERMS = {
    (-1, True): ((1, 0.5, 0), (0, -0.5, 1)),
    (-1, False): ((0, 0.5, 0), (-1, -0.5, 1)),
    (+1, True): ((1, 0.5, 1), (0, -0.5, 0)),
    (+1, False): ((0, 0.5, 1), (-1, -0.5, 0)),
}


def subspace_bracket(a_blocks: dict, j_a, b_blocks: dict, j_b, dn: int,
                     up: bool) -> np.ndarray:
    """Four-branch bracket between state A and every state of B.

    `a_blocks` is {n: (gamma_min, (..., d_n, 1))}, `b_blocks` is
    {n: (gamma_min, (..., d_n, s))}, both as `dressed_subspace` returns
    them; (dn, up) is the transfer (Delta N, Delta j > 0). Returns
    (..., s). Each pseudo-inner product sums in (n, gamma) order.
    """
    any_b = next(iter(b_blocks.values()))[1]
    amp = np.zeros(any_b.shape[:-2] + any_b.shape[-1:])
    for x, shift, column in _BRACKET_TERMS[dn, up]:
        ua, ub, matter = [], [], []
        for n in sorted(a_blocks):
            if n + x not in b_blocks:
                continue
            ga, a = a_blocks[n]
            gb, b = b_blocks[n + x]
            lo, hi = max(ga, gb), min(ga + a.shape[-2], gb + b.shape[-2])
            ua.append(a[..., lo - ga:hi - ga, :])
            ub.append(b[..., lo - gb:hi - gb, :])
            matter.extend(range(n - lo, n - hi, -1))
        if not matter:
            continue
        m = np.array(matter, dtype=float) - j_a  # exact: half-integers
        if dn < 0:
            weight = _cg(j_a, m, "+" if up else "-", column)
        else:
            weight = _cg(j_b, m + shift, "-" if up else "+", column)
        if len(ub) > 1:
            ub, ua = np.concatenate(ub, axis=-2), np.concatenate(ua, axis=-2)
        else:
            ub, ua = ub[0], ua[0]
        amp = amp + _ordered_sum(ub * ua * weight[..., None], axis=-2)
    return amp


def _bracket_reads(a_blocks: dict, dn: int, up: bool) -> set[int]:
    """The blocks of B that `subspace_bracket` can read, given A's."""
    return {n + x for n in a_blocks for x, _, _ in _BRACKET_TERMS[dn, up]}


def extraction_strengths(params, n_excs) -> tuple[np.ndarray, list]:
    """Ungated extraction from the dressed j = N/2 ground into subspaces
    of the (N - 1, j - 1/2) sector; `params` as for `dressed_subspace`.

    Returns the ground energy (..., 1) and, per n_exc of `n_excs`, that
    subspace's energies, blocks and strengths N |bracket|^2, (..., d).
    The blocks are the subspace's own and those of its targets that the
    bracket reads: the ground has blocks n = 0 and 2, so it reads the
    final blocks n <= 2. A target above that (n_exc + 2 from n_exc = 1
    on) is only checked: its denominators are rejected on the same
    energies as in `dressed_subspace`, with the same DegenerateDenominator,
    but its block is not built. Each subspace of a sector is solved once
    per call.
    """
    n = params.n_electrons
    ground_energy, ground = _dress(_Sector(params, n, n), 0)
    final = _Sector(params, n - 1, n - 1)
    read = _bracket_reads(ground, -1, False)
    finals = []
    for n_exc in n_excs:
        energies, blocks = _dress(final, n_exc, read)
        amp = subspace_bracket(ground, n / 2, blocks, (n - 1) / 2, -1, False)
        finals.append((energies, blocks, n * amp * amp))  # kappa = N
    return ground_energy, finals


# ---------------------------------------------------------------------------
# macroscopic transition rates
# ---------------------------------------------------------------------------

def chemical_gate(delta_ab, mu, direction: str):
    """Zero-temperature lead occupation factor for a tunnelling event.

    ``delta_ab`` is the system energy change E_B - E_A.  An electron
    leaves into the lead (``direction='out'``) when -mu - delta_ab >= 0
    and enters from it (``'in'``) when mu - delta_ab >= 0; the marginal
    case counts as open.  Elementwise on arrays.
    """
    if direction == "out":
        return -mu - delta_ab >= 0.0
    if direction == "in":
        return mu - delta_ab >= 0.0
    raise ConfigurationError(f"direction must be 'in' or 'out', got {direction!r}")


def _transfer(state_a: DressedState, state_b: DressedState,
              direction: str) -> tuple[int, bool]:
    """(Delta N, Delta j > 0) of a supported single-electron transfer."""
    dn = state_b.n_electrons - state_a.n_electrons
    dj = state_b.j - state_a.j
    if abs(dn) != 1 or abs(abs(dj) - 0.5) > 1e-12:
        raise InvalidQuantumNumbers(
            f"need |Delta N| = 1 and |Delta j| = 1/2, got "
            f"Delta N = {dn}, Delta j = {dj}")
    # extraction lowers N and injection raises it; the other two pairings
    # would need a doubly occupied site, which the model does not hold
    if direction == "out" and dn != -1:
        raise UnsupportedDoubleOccupancy(
            "extraction with Delta N = +1 requires a doublon initial state")
    if direction == "in" and dn != +1:
        raise UnsupportedDoubleOccupancy(
            "injection with Delta N = -1 requires creating a doublon")
    return dn, dj > 0


def _strength(state_a: DressedState, state_b: DressedState, dn: int,
              up: bool, params: SystemParams) -> float:
    """kappa * |bracket|^2 of one transfer."""
    if dn < 0:
        kappa = float(state_a.n_electrons)
    else:
        kappa = float(params.n_sites_total - state_a.n_electrons)
    amp = float(subspace_bracket(state_a.blocks, state_a.j, state_b.blocks,
                                 state_b.j, dn, up)[0])
    return kappa * amp * amp


def transition_rate_fermionic(state_a: DressedState, state_b: DressedState,
                              reservoir: str, direction: str,
                              params: SystemParams) -> float:
    """Golden-rule rate A -> B through one lead, in units of Gamma_el.

    rate = theta-gate(mu, Delta) * kappa * |four-branch bracket|^2 with
    Delta = E_B - E_A, out-gate theta(-mu - Delta), in-gate
    theta(mu - Delta), theta(0) = 1. Extraction must lower N and
    injection raise it; the other two pairings would need a doubly
    occupied site and raise UnsupportedDoubleOccupancy.
    """
    if reservoir not in ("L", "R"):
        raise ConfigurationError(f"reservoir must be 'L' or 'R', "
                                 f"got {reservoir!r}")
    if direction not in ("in", "out"):
        raise ConfigurationError(f"direction must be 'in' or 'out', "
                                 f"got {direction!r}")
    dn, up = _transfer(state_a, state_b, direction)
    mu = params.mu_l if reservoir == "L" else params.mu_r
    if not chemical_gate(state_b.energy - state_a.energy, mu, direction):
        return 0.0
    return _strength(state_a, state_b, dn, up, params)


def transition_strength(state_a: DressedState, state_b: DressedState,
                        params: SystemParams) -> float:
    """kappa * |bracket|^2 for extraction, without the lead gating.

    This is the golden-rule strength an exact-diagonalization check
    compares against: the chemical-potential Heaviside factors are
    environment bookkeeping, not part of the matrix element.
    """
    if state_b.n_electrons != state_a.n_electrons - 1:
        raise InvalidQuantumNumbers("transition_strength handles extraction "
                                    "(Delta N = -1) only")
    dn, up = _transfer(state_a, state_b, "out")
    return _strength(state_a, state_b, dn, up, params)


_LABELS = (("G",), ("-", "+"), ("--", "+-", "++"))


def subspace_labels(n_exc: int, two_j: int) -> tuple[str, ...]:
    """Labels of the eigenstates of subspace n_exc, in energy order.

    'G' for n_exc = 0, ('-', '+') for the single-polariton subspace and
    ('--', '+-', '++') for the double one, truncated when the matter
    ladder clamps the dimension to min(n_exc, 2j) + 1; 'n<n_exc>.<q>'
    above.
    """
    _, dim = _span(n_exc, two_j)
    if n_exc < len(_LABELS):
        return _LABELS[n_exc][:dim]
    return tuple(f"n{n_exc}.{q}" for q in range(dim))


def dressed_sector_states(params: SystemParams, n_electrons: int, j: float,
                          n_exc: int) -> list[DressedState]:
    """All dressed eigenstates of one (N, j, n_exc) subspace, labelled by
    `subspace_labels`. j must be a non-negative half-integer and n_exc
    non-negative (InvalidQuantumNumbers otherwise)."""
    if n_exc < 0 or not _half_int(j) or j < 0:
        raise InvalidQuantumNumbers(
            f"invalid subspace (j={j}, n_exc={n_exc})")
    two_j = round(2 * j)
    energies, blocks = dressed_subspace(params, n_electrons, two_j, n_exc)
    return [DressedState(j=j, n_electrons=n_electrons, n_exc=n_exc,
                         label=label, energy=float(energies[q]),
                         blocks={n: (g, c[:, q:q + 1])
                                 for n, (g, c) in blocks.items()})
            for q, label in enumerate(subspace_labels(n_exc, two_j))]


def dressed_ground_state(params: SystemParams) -> DressedState:
    """Dressed ground of the symmetric j = N/2 sector."""
    n = params.n_electrons
    return dressed_sector_states(params, n, n / 2, 0)[0]


class FermionicRates(NamedTuple):
    """Single-polariton GSE output of the fermionic pipeline: arrays,
    one element per operating point of the stack, or numpy scalars for
    one ``SystemParams``. The first six fields are the tier contract
    stated in ``gse.emission``."""
    omega_plus: np.ndarray
    omega_minus: np.ndarray
    rate_plus: np.ndarray
    rate_minus: np.ndarray
    weight_plus: np.ndarray
    weight_minus: np.ndarray
    dark_rate: np.ndarray


def fermionic_rate_arrays(points: SystemParams | ParamStack) -> FermionicRates:
    """Extraction rates G_N -> polaritons of the (N-1) sector at every
    operating point of a stack, or at one point.

    Rates are summed over both leads; at the default chemical
    potentials only the left lead gates open. The photon weight is the
    photonic fraction |u_{gamma=1}(1)|^2 of the bare polariton.

    Points are grouped by the `_clamp` of the largest subspace the
    pipeline dresses (the single polaritons of the N - 1 sector); it
    fixes every other clamp. From N = 4 on it is the same, so one group
    holds them all and each kernel is one (P, d, d) eigensolve.
    """
    if isinstance(points, SystemParams):
        return FermionicRates(*(column[0] for column in
                                fermionic_rate_arrays(ParamStack.of([points]))))
    n = points.n_electrons
    if np.any(n < 2):
        raise ConfigurationError("fermionic single-polariton rates need "
                                 f"N >= 2, got {int(n.min())}")
    group = _clamp(n - 1, 1)
    out = np.empty((len(FermionicRates._fields), len(points)))
    for key in sorted(set(group.tolist())):
        index = np.nonzero(group == key)[0]
        out[:, index] = _group_rates(points.take(index))
    return FermionicRates(*out)


def _group_rates(points: ParamStack) -> FermionicRates:
    """Rates of the points of one matter-clamp group."""
    points = ParamStack(**{name: column[:, None]
                           for name, column in vars(points).items()})
    e_ground, [(e_dark, _, dark), (e_pol, polaritons, bright)] = \
        extraction_strengths(points, (0, 1))
    def lead_sum(energies, strength):
        delta = energies - e_ground
        return (np.where(chemical_gate(delta, points.mu_l, "out"), strength, 0.0)
                + np.where(chemical_gate(delta, points.mu_r, "out"), strength, 0.0))

    rates = lead_sum(e_pol, bright)
    omega = e_pol - e_dark
    photon = polaritons[1][1][:, 1, :]  # gamma = 1 row of '-' and '+'
    weight = photon * photon
    return FermionicRates(omega[:, 1], omega[:, 0], rates[:, 1], rates[:, 0],
                          weight[:, 1], weight[:, 0],
                          lead_sum(e_dark, dark)[:, 0])


# ---------------------------------------------------------------------------
# closed form and its bosonized pipeline twin
# ---------------------------------------------------------------------------

def gse_rate_pipeline(omega_0: float, omega_c: float, g: float,
                      branch: str = "-") -> float:
    """Single-polariton GSE rate from the bosonic rung algebra.

    This is the thermodynamic form of the fermionic pipeline: both
    sectors carry the same collective coupling g, the Clebsch-Gordan
    ladder reduces to sqrt(matter count), and the kappa = N statistics
    cancels the 1/N of the matrix element exactly. The result is
    N-independent and equals gse_rate_closed_form identically.

    Takes raw floats, so it guards its own domain: g >= 0 and
    g^2 < omega_0 omega_c, below the pole of the closed form at
    g^2 = omega_0 omega_c (Unstable otherwise).  The Dicke bound that
    ``SystemParams`` enforces is tighter.
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    if g == 0:
        return 0.0
    if g < 0 or g * g >= omega_0 * omega_c:
        raise Unstable(f"coupling g={g:.6g} outside the stable region",
                       omega_0=omega_0, omega_c=omega_c, g=g)
    kern1 = np.array([[omega_c, g], [g, omega_0]])
    _, v1 = np.linalg.eigh(kern1)  # rows: k=0 photon, k=1 matter
    kern2 = np.array([
        [2 * omega_c, SQRT2 * g, 0.0],
        [SQRT2 * g, omega_0 + omega_c, SQRT2 * g],
        [0.0, SQRT2 * g, 2 * omega_0],
    ])
    e2, v2 = np.linalg.eigh(kern2)
    # dressed ground, n=2 block (matter-indexed); A_plus = g
    u2 = np.zeros(3)
    for q in range(3):
        u2 -= (g * v2[1, q] / e2[q]) * v2[:, q]
    bra = v1[:, 0] if branch == "-" else v1[:, 1]
    # sum over gamma of u^B_gamma(1) u^G_gamma(2) sqrt(2 - gamma)
    amp = bra[1] * u2[2] * SQRT2 + bra[0] * u2[1]
    return amp * amp


def gse_rate_closed_form(params: SystemParams, branch: str) -> float:
    """Closed-form single-polariton GSE rate, units of Gamma_el.

    Gamma = [g w_c (w_0 cos(theta) + g sin(theta))
             / ((w_0 + w_c)(w_0 w_c - g^2))]^2
    with theta = theta_plus for the lower branch and theta_plus + pi/2
    for the upper one. The branch-angle assignment is not fixed by the
    defining equations alone; it is pinned by the small-g agreement
    with the bosonic models.

    The two branches split exactly into a total and a share:

        Gamma_+ + Gamma_- = g^2 w_c^2 (w_0^2 + g^2)
                            / ((w_0 + w_c)^2 (w_0 w_c - g^2)^2)
        Gamma_+ / (Gamma_+ + Gamma_-) = sin^2(theta_plus - arctan(g/w_0))

    The total carries the counter-rotating energy denominator w_0 + w_c;
    it falls strictly with w_c wherever w_0 w_c > g^2, roughly as
    g^2/(w_0 + w_c)^2 once w_c is large. theta_plus
    rises with w_c and equals arctan(g/w_0) only at w_c = g^2/w_0, which
    lies below the stability bound w_c > 4 g^2/w_0; so across the stable
    region theta_plus - arctan(g/w_0) stays in (0, pi/2) and the upper
    share rises strictly with w_c. The upper rate, a rising share times a
    falling total, is therefore not monotone in detuning: at g = 0.1 it
    peaks near detuning +0.25, in all three tiers and in exact
    diagonalization, while the lower rate falls throughout.

    The pole at g^2 = w_0 w_c is never reached: every ``SystemParams``
    satisfies the tighter Dicke bound 4 g^2 < w_0 w_c.
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    g = collective_coupling(params)
    if g == 0:
        return 0.0
    w0, wc = params.omega_0, params.omega_c
    theta = theta_plus(w0, wc, g)
    if branch == "+":
        theta += math.pi / 2
    num = g * wc * (w0 * math.cos(theta) + g * math.sin(theta))
    den = (w0 + wc) * (w0 * wc - g * g)
    return (num / den) ** 2
