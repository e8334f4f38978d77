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

import math
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Mapping

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDenominator,
    InvalidQuantumNumbers,
    Unstable,
    UnsupportedDoubleOccupancy,
)
from .params import SystemParams, collective_coupling

__all__ = [
    "SubspaceKey",
    "SubspaceEigenbasis",
    "DressedState",
    "MacroState",
    "FermionicRates",
    "degeneracy",
    "sector_base_energy",
    "tc_kernel",
    "diagonalize_subspace",
    "theta_plus",
    "dress_state_first_order",
    "clebsch_coeffs",
    "pseudo_inner",
    "transition_rate_fermionic",
    "dressed_sector_states",
    "dressed_ground_state",
    "fermionic_rates",
    "gse_rate_pipeline",
    "gse_rate_closed_form",
]

SQRT2 = math.sqrt(2.0)

_DENOM_FLOOR = 1e-9


def _half_int(x: float) -> bool:
    return abs(2 * x - round(2 * x)) < 1e-12


def degeneracy(n_electrons: int, j: float) -> int:
    """Multiplicity of total spin j among N spin-1/2 couplings."""
    if n_electrons < 1 or not _half_int(j) or j < 0 or j > n_electrons / 2:
        raise InvalidQuantumNumbers(
            f"invalid (N, j) = ({n_electrons}, {j})")
    k = n_electrons / 2 - j
    if abs(k - round(k)) > 1e-12:
        raise InvalidQuantumNumbers(
            f"N - 2j must be even, got N={n_electrons}, j={j}")
    k = int(round(k))
    low = math.comb(n_electrons, k - 1) if k >= 1 else 0
    return math.comb(n_electrons, k) - low


@dataclass(frozen=True)
class SubspaceKey:
    """Fixed-(j, N, N2) subspace with n_exc bare excitations."""
    j: float
    n_exc: int
    n_electrons: int
    n_double: int = 0

    def __post_init__(self):
        if self.n_exc < 0 or not _half_int(self.j) or self.j < 0:
            raise InvalidQuantumNumbers(
                f"invalid subspace key (j={self.j}, n_exc={self.n_exc})")

    @property
    def two_j(self) -> int:
        return int(round(2 * self.j))

    @property
    def dim(self) -> int:
        # matter excitations clamp at 2j
        return min(self.n_exc, self.two_j) + 1

    @property
    def gamma_min(self) -> int:
        return self.n_exc - min(self.n_exc, self.two_j)


@dataclass(frozen=True)
class SubspaceEigenbasis:
    key: SubspaceKey
    energies: np.ndarray
    vectors: np.ndarray  # column q = eigenstate; row i = gamma_min + i

    @property
    def gamma_min(self) -> int:
        return self.key.gamma_min


@dataclass(frozen=True, eq=False)
class DressedState:
    """First-order dressed eigenstate: coefficient map over (n, gamma).

    `energy` is the unperturbed subspace eigenvalue (it includes the
    sector base energy, so differences across sectors are physical).
    `norm_sq` records sum |u|^2 = 1 + O(beta^2); it is metadata, the
    map is deliberately not renormalized.
    """
    j: float
    n_electrons: int
    n_double: int
    n_exc: int
    label: str
    energy: float
    u: Mapping[tuple[int, int], float]

    @property
    def norm_sq(self) -> float:
        return sum(v * v for v in self.u.values())


@dataclass(frozen=True)
class MacroState:
    """Equivalence-class label |j, m; N, N2, gamma> with its multiplicity."""
    j: float
    m: float
    n_electrons: int
    n_double: int
    gamma: int

    def __post_init__(self):
        if not _half_int(self.m) or abs(self.m) > self.j + 1e-12:
            raise InvalidQuantumNumbers(f"|m| > j for m={self.m}, j={self.j}")
        if self.gamma < 0:
            raise InvalidQuantumNumbers(f"negative photon number {self.gamma}")
        degeneracy(self.n_electrons, self.j)  # validates (N, j)

    @property
    def degeneracy(self) -> int:
        return degeneracy(self.n_electrons, self.j)


def sector_base_energy(params: SystemParams, n_electrons: int,
                       n_double: int, j: float) -> float:
    """E0(N, N2) - j*omega_0: the energy of |j, m=-j, 0 photons>."""
    e0 = (params.omega_1 * n_electrons + 2 * params.omega_1 * n_double
          + params.omega_0 * (n_electrons / 2 + n_double))
    return e0 - j * params.omega_0


def tc_kernel(key: SubspaceKey, params: SystemParams,
              matched: bool = False) -> np.ndarray:
    """Symmetric tridiagonal kernel in the matter index k.

    Diagonal (n-k)*omega_c + k*omega_0 + E0_tilde; off-diagonal
    chi*sqrt(n-k+1)*sqrt(k(2j-k+1)). With matched=True the collective
    factor (2j-k+1) is replaced by 2j, which turns the ladder into the
    bosonic rung algebra at coupling chi*sqrt(2j).
    """
    n, two_j = key.n_exc, key.two_j
    dim = key.dim
    base = sector_base_energy(params, key.n_electrons, key.n_double, key.j)
    kern = np.zeros((dim, dim))
    for k in range(dim):
        kern[k, k] = (n - k) * params.omega_c + k * params.omega_0 + base
    for k in range(1, dim):
        spin = two_j if matched else two_j - k + 1
        assert spin >= 0
        off = params.chi * math.sqrt(n - k + 1) * math.sqrt(k * spin)
        kern[k - 1, k] = kern[k, k - 1] = off
    return kern


def _fix_sign(vec: np.ndarray) -> np.ndarray:
    # most-photonic nonzero component positive (gamma = high index)
    for comp in vec[::-1]:
        if comp != 0.0:
            return -vec if comp < 0 else vec
    return vec


def diagonalize_subspace(kernel: np.ndarray,
                         key: SubspaceKey) -> SubspaceEigenbasis:
    """Ascending eigenvalues; photon-indexed, sign-fixed eigenvectors."""
    energies, vecs = np.linalg.eigh(kernel)
    vecs = vecs[::-1, :].copy()  # matter index k -> gamma = n - k
    for q in range(vecs.shape[1]):
        vecs[:, q] = _fix_sign(vecs[:, q])
    return SubspaceEigenbasis(key=key, energies=energies, vectors=vecs)


def theta_plus(omega_0: float, omega_c: float, g: float) -> float:
    """Mixing angle of the upper n=1 polariton, tan = (-Delta+R)/(2g)."""
    delta = omega_0 - omega_c
    return math.atan2(-delta + math.hypot(2 * g, delta), 2 * g)


def _a_plus(chi: float, two_j: int, n: int, gamma: int,
            matched: bool) -> float:
    spin = two_j if matched else two_j - n + gamma
    if spin <= 0 and not matched:
        return 0.0
    return chi * math.sqrt((gamma + 1) * spin * (n - gamma + 1))


def _a_minus(chi: float, two_j: int, n: int, gamma: int,
             matched: bool) -> float:
    if gamma == 0 or n - gamma == 0:
        return 0.0
    spin = two_j if matched else two_j - n + gamma + 1
    return chi * math.sqrt(gamma * (n - gamma) * spin)


def dress_state_first_order(basis: SubspaceEigenbasis, index: int,
                            params: SystemParams, matched: bool = False,
                            label: str = "") -> DressedState:
    """First-order counter-rotating admixture into the n +- 2 sectors.

    u(n +- 2) = -sum_q <q|V|beta>/(E_q - E_beta) u_q with the A_{+-}
    amplitudes; energy denominators below 1e-9 are rejected rather than
    regularized.
    """
    key = basis.key
    n = key.n_exc
    gmin = key.gamma_min
    vec = basis.vectors[:, index]
    e_beta = float(basis.energies[index])
    u: dict[tuple[int, int], float] = {
        (n, gmin + i): float(vec[i]) for i in range(len(vec))}
    for step in (+2, -2):
        n_t = n + step
        if n_t < 0:
            continue
        tkey = dc_replace(key, n_exc=n_t)
        tbasis = diagonalize_subspace(tc_kernel(tkey, params, matched), tkey)
        tg = tkey.gamma_min
        tdim = tkey.dim
        # V|beta> in the photon-indexed target basis
        w = np.zeros(tdim)
        for i in range(len(vec)):
            gamma = gmin + i
            if step > 0:
                amp = _a_plus(params.chi, key.two_j, n, gamma, matched)
                g_t = gamma + 1
            else:
                amp = _a_minus(params.chi, key.two_j, n, gamma, matched)
                g_t = gamma - 1
            if amp == 0.0:
                continue
            w[g_t - tg] += amp * vec[i]
        if not w.any():
            continue
        acc = np.zeros(tdim)
        for q in range(tdim):
            denom = float(tbasis.energies[q]) - e_beta
            if abs(denom) < _DENOM_FLOOR:
                raise DegenerateDenominator(
                    f"|E_q - E_beta| = {abs(denom):.3g} below {_DENOM_FLOOR} "
                    f"for target sector n={n_t}, j={key.j}")
            acc -= (float(w @ tbasis.vectors[:, q]) / denom) \
                * tbasis.vectors[:, q]
        for i in range(tdim):
            if acc[i] != 0.0:
                u[(n_t, tg + i)] = float(acc[i])
    return DressedState(j=key.j, n_electrons=key.n_electrons,
                        n_double=key.n_double, n_exc=n, label=label,
                        energy=e_beta, u=u)


# ---------------------------------------------------------------------------
# Clebsch-Gordan machinery
# ---------------------------------------------------------------------------

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
    if branch == "-":
        if j < 0.5:
            raise InvalidQuantumNumbers("branch '-' needs J >= 1/2")
        return (math.sqrt((j - m) / (2 * j)),
                math.sqrt((j + m) / (2 * j)))
    if branch == "+":
        return (math.sqrt((j + m + 1) / (2 * j + 2)),
                -math.sqrt((j - m + 1) / (2 * j + 2)))
    raise InvalidQuantumNumbers(f"branch must be '+' or '-', got {branch!r}")


def _branch_sign(j_small: float, j_big: float) -> str:
    # branch label of clebsch_coeffs for j2 relative to J
    return "+" if j_small > j_big else "-"


def _c_down(j_a: float, j_b: float) -> Callable[[float], float]:
    """C-arrow-down_{AB}(m) = C^{j_A, m}_{j_B, m+1/2}."""
    branch = _branch_sign(j_b, j_a)

    def weight(m: float) -> float:
        if abs(m) > j_a + 1e-12 or abs(m + 0.5) > j_b + 1e-12:
            return 0.0
        return clebsch_coeffs(j_a, m, branch)[0]
    return weight


def _d_down(j_a: float, j_b: float) -> Callable[[float], float]:
    """D-arrow-down_{AB}(m) = D^{j_A, m}_{j_B, m-1/2}."""
    branch = _branch_sign(j_b, j_a)

    def weight(m: float) -> float:
        if abs(m) > j_a + 1e-12 or abs(m - 0.5) > j_b + 1e-12:
            return 0.0
        return clebsch_coeffs(j_a, m, branch)[1]
    return weight


def _c_up(j_a: float, j_b: float) -> Callable[[float], float]:
    """C-arrow-up_{BA}(m) = C^{j_B, m-1/2}_{j_A, m}."""
    branch = _branch_sign(j_a, j_b)

    def weight(m: float) -> float:
        if abs(m - 0.5) > j_b + 1e-12 or abs(m) > j_a + 1e-12:
            return 0.0
        return clebsch_coeffs(j_b, m - 0.5, branch)[0]
    return weight


def _d_up(j_a: float, j_b: float) -> Callable[[float], float]:
    """D-arrow-up_{BA}(m) = D^{j_B, m+1/2}_{j_A, m}."""
    branch = _branch_sign(j_a, j_b)

    def weight(m: float) -> float:
        if abs(m + 0.5) > j_b + 1e-12 or abs(m) > j_a + 1e-12:
            return 0.0
        return clebsch_coeffs(j_b, m + 0.5, branch)[1]
    return weight


def pseudo_inner(state_a: DressedState, state_b: DressedState, x: int,
                 weight: Callable[[float], float]) -> float:
    """<A, B>^x_F = sum_{n, gamma} u^B_gamma(n+x) u^A_gamma(n) F(m).

    F is evaluated at m = -j_A + n - gamma. The sum runs over the
    stored coefficient pairs in deterministic (n, gamma) order.
    """
    total = 0.0
    for (n, gamma), ua in sorted(state_a.u.items()):
        ub = state_b.u.get((n + x, gamma))
        if ub is None:
            continue
        total += ub * ua * weight(-state_a.j + n - gamma)
    return total


# ---------------------------------------------------------------------------
# macroscopic transition rates
# ---------------------------------------------------------------------------

def transition_rate_fermionic(state_a: DressedState, state_b: DressedState,
                              reservoir: str, direction: str,
                              params: SystemParams) -> float:
    """Golden-rule rate A -> B through one lead, in units of Gamma_el.

    rate = theta-gate(mu, Delta) * kappa * |four-branch bracket|^2 with
    Delta = E_B - E_A, out-gate theta(-mu - Delta), in-gate
    theta(mu - Delta), theta(0) = 1. Only the N2-conserving branches
    are supported; N2-changing transfers raise
    UnsupportedDoubleOccupancy.
    """
    if reservoir not in ("L", "R"):
        raise ConfigurationError(f"reservoir must be 'L' or 'R', "
                                 f"got {reservoir!r}")
    if direction not in ("in", "out"):
        raise ConfigurationError(f"direction must be 'in' or 'out', "
                                 f"got {direction!r}")
    dn = state_b.n_electrons - state_a.n_electrons
    dj = state_b.j - state_a.j
    if abs(dn) != 1 or abs(abs(dj) - 0.5) > 1e-12:
        raise InvalidQuantumNumbers(
            f"need |Delta N| = 1 and |Delta j| = 1/2, got "
            f"Delta N = {dn}, Delta j = {dj}")
    if state_a.n_double != state_b.n_double:
        raise UnsupportedDoubleOccupancy(
            "transitions changing the doubly-occupied count are not modeled")
    # the N2-preserving branches pair out with N -> N-1 and in with
    # N -> N+1; the other two combinations exist only through N2 +- 1
    if direction == "out" and dn != -1:
        raise UnsupportedDoubleOccupancy(
            "extraction with Delta N = +1 requires a doublon initial state")
    if direction == "in" and dn != +1:
        raise UnsupportedDoubleOccupancy(
            "injection with Delta N = -1 requires creating a doublon")

    mu = params.mu_l if reservoir == "L" else params.mu_r
    delta_ab = state_b.energy - state_a.energy
    if direction == "out":
        gate = 1.0 if -mu - delta_ab >= 0 else 0.0
        kappa = float(state_a.n_electrons)
    else:
        gate = 1.0 if mu - delta_ab >= 0 else 0.0
        kappa = float(params.n_sites_total - state_a.n_electrons
                      - state_a.n_double)
    if gate == 0.0:
        return 0.0

    j_a, j_b = state_a.j, state_b.j
    up = dj > 0
    if dn == -1 and up:
        amp = (pseudo_inner(state_a, state_b, 1, _c_down(j_a, j_b))
               + pseudo_inner(state_a, state_b, 0, _d_down(j_a, j_b)))
    elif dn == -1:
        amp = (pseudo_inner(state_a, state_b, 0, _c_down(j_a, j_b))
               + pseudo_inner(state_a, state_b, -1, _d_down(j_a, j_b)))
    elif up:
        amp = (pseudo_inner(state_a, state_b, 1, _d_up(j_a, j_b))
               + pseudo_inner(state_a, state_b, 0, _c_up(j_a, j_b)))
    else:
        amp = (pseudo_inner(state_a, state_b, 0, _d_up(j_a, j_b))
               + pseudo_inner(state_a, state_b, -1, _c_up(j_a, j_b)))
    return gate * kappa * amp * amp


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
    saved = (params.mu_l, params.mu_r)
    # gate trivially open: extraction threshold -mu - Delta >= 0 always
    # holds for mu low enough; reuse the gated rate at mu -> -infinity
    open_params = params.replace(mu_l=-1e30, mu_r=saved[1])
    return transition_rate_fermionic(state_a, state_b, "L", "out",
                                     open_params)


_N1_LABELS = ("-", "+")
_N2_LABELS = ("--", "+-", "++")


def dressed_sector_states(params: SystemParams, n_electrons: int, j: float,
                          n_exc: int, matched: bool = False
                          ) -> list[DressedState]:
    """All dressed eigenstates of one (N, j, n_exc) subspace.

    Labels follow the energy ordering: 'G' for n_exc=0, ('-', '+') for
    the single-polariton subspace, ('--', '+-', '++') for the double
    one (truncated when the matter ladder clamps the dimension).
    """
    key = SubspaceKey(j=j, n_exc=n_exc, n_electrons=n_electrons)
    basis = diagonalize_subspace(tc_kernel(key, params, matched), key)
    if n_exc == 0:
        labels = ("G",)
    elif n_exc == 1:
        labels = _N1_LABELS
    elif n_exc == 2:
        labels = _N2_LABELS
    else:
        labels = tuple(f"n{n_exc}.{i}" for i in range(key.dim))
    return [dress_state_first_order(basis, q, params, matched,
                                    label=labels[q] if q < len(labels)
                                    else f"n{n_exc}.{q}")
            for q in range(key.dim)]


def dressed_ground_state(params: SystemParams,
                         matched: bool = False) -> DressedState:
    """Dressed ground of the symmetric j = N/2 sector."""
    n = params.n_electrons
    return dressed_sector_states(params, n, n / 2, 0, matched)[0]


@dataclass(frozen=True)
class FermionicRates:
    """Single-polariton GSE output of the fermionic pipeline."""
    rate_plus: float
    rate_minus: float
    omega_plus: float
    omega_minus: float
    weight_plus: float
    weight_minus: float
    dark_rate: float


def fermionic_rates(params: SystemParams) -> FermionicRates:
    """Extraction rates G_N -> polaritons of the (N-1) sector.

    Rates are summed over both leads; at the default chemical
    potentials only the left lead gates open. The photon weight is the
    photonic fraction |u_{gamma=1}(1)|^2 of the bare polariton.
    """
    n = params.n_electrons
    if n < 2:
        raise ConfigurationError("fermionic single-polariton rates need "
                                 f"N >= 2, got {n}")
    j_b = (n - 1) / 2
    ground = dressed_ground_state(params)
    final_ground = dressed_sector_states(params, n - 1, j_b, 0)[0]
    minus, plus = dressed_sector_states(params, n - 1, j_b, 1)
    base = final_ground.energy

    def lead_sum(target: DressedState) -> float:
        return sum(transition_rate_fermionic(ground, target, lead, "out",
                                             params) for lead in ("L", "R"))

    return FermionicRates(
        rate_plus=lead_sum(plus),
        rate_minus=lead_sum(minus),
        omega_plus=plus.energy - base,
        omega_minus=minus.energy - base,
        weight_plus=plus.u[(1, 1)] ** 2,
        weight_minus=minus.u[(1, 1)] ** 2,
        dark_rate=lead_sum(final_ground),
    )


# ---------------------------------------------------------------------------
# closed form and its bosonized pipeline twin
# ---------------------------------------------------------------------------

def gse_rate_pipeline(omega_0: float, omega_c: float, g: float,
                      branch: str = "-") -> float:
    """Single-polariton GSE rate from the rung (matched) algebra.

    This is the thermodynamic form of the fermionic pipeline: both
    sectors carry the same collective coupling g, the Clebsch-Gordan
    ladder reduces to sqrt(matter count), and the kappa = N statistics
    cancels the 1/N of the matrix element exactly. The result is
    N-independent and equals gse_rate_closed_form identically.
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
    with the bosonic models and by the detuning monotonicity of the
    two rates.
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    g = collective_coupling(params)
    if g == 0:
        return 0.0
    w0, wc = params.omega_0, params.omega_c
    if g * g >= w0 * wc:
        raise Unstable("closed form diverges at g^2 = omega_0*omega_c",
                       omega_0=w0, omega_c=wc, g=g)
    theta = theta_plus(w0, wc, g)
    if branch == "+":
        theta += math.pi / 2
    num = g * wc * (w0 * math.cos(theta) + g * math.sin(theta))
    den = (w0 + wc) * (w0 * wc - g * g)
    return (num / den) ** 2
