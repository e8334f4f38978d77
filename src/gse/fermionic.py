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

Kernels, dressing and brackets are written once, as index loops over
entries: Python floats at one operating point, columns of a stack of
them otherwise, so a single evaluation and a whole sweep run the same
arithmetic. Each subspace's eigensolve is one numpy call either way. One
point returns its entries as built-in floats in nested lists, bit for
bit the row of a one-point stack, and a stack returns arrays. At one
point a solved subspace costs one `eigh` and two `.tolist()` calls;
beyond those and its argument checks, a call builds no array.

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
from typing import Mapping

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
    return math.isfinite(x) and abs(2 * x - round(2 * x)) < 1e-12


@dataclass(frozen=True, eq=False)
class DressedState:
    """First-order dressed eigenstate: coefficient blocks over (n, gamma).

    `blocks` maps each bare-excitation number n to (gamma_min,
    coefficients of gamma = gamma_min, gamma_min + 1, ... as d_n rows of
    one built-in float each, a column of one-point `dressed_subspace`
    blocks). `energy` is the unperturbed subspace eigenvalue (it includes
    the sector base energy, so differences across sectors are physical).
    The state is not renormalized: sum |u|^2 = 1 + O(beta^2).
    """
    j: float
    n_electrons: int
    n_exc: int
    label: str
    energy: float
    blocks: Mapping[int, tuple[int, list[list[float]]]]

    @property
    def u(self) -> dict[tuple[int, int], float]:
        """Coefficients keyed by (n, gamma): the whole source subspace
        and the nonzero admixtures."""
        return {(n, gmin + i): value
                for n, (gmin, coeffs) in self.blocks.items()
                for i, (value,) in enumerate(coeffs)
                if value != 0.0 or n == self.n_exc}


def sector_base_energy(params: SystemParams | ParamStack, n_electrons, j):
    """E0(N) - j*omega_0: the energy of |j, m=-j, 0 photons>.

    Elementwise when `params` is a ParamStack or the labels are arrays.
    """
    e0 = params.omega_1 * n_electrons + params.omega_0 * (n_electrons / 2)
    return e0 - j * params.omega_0


# ---------------------------------------------------------------------------
# subspace kernels, eigenbases and first-order dressing, over entries
#
# The arithmetic runs over entries with plain index loops. An entry is a
# Python float for one operating point (a SystemParams) and a (P,)
# column for a stack of P points (a ParamStack), so a single evaluation
# and a whole sweep run the same code, and only the type of `params`
# decides which. Per-point values (the fields of `params`,
# `n_electrons`, `two_j`, `base`, j) are entries too. Arrays appear only
# around each subspace's one eigensolve and in what a stack returns:
# `_array` builds one from nested entry lists and `_entries` splits one
# back, with a leading axis of `size` points (`size` is None for one
# point). One point keeps its nested lists of built-in floats: there
# `_array` is the identity, `eigh` takes the lists and `_entries` is
# `.tolist()`, so a solved subspace costs one `eigh` and two `.tolist()`
# calls. `_signed` signs the eigenvectors of both on their entries.
# Every sum runs in index order as a left fold, total = total + term, so
# a stack and a single point round alike on every Python (the built-in
# `sum` compensates from 3.12 on). Subspace n has its natural size
# min(n, 2j) + 1, which every point of a stack shares.
# ---------------------------------------------------------------------------

def _size(params) -> int | None:
    """None for one operating point, the number of points of a stack."""
    return len(params) if isinstance(params, ParamStack) else None


def _sqrt(x):
    """Square root of a float entry or a column."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _array(entries, size: int | None):
    """The array of nested lists of entries, with a leading axis of
    `size` points for a stack; a float entry of a stack is broadcast.
    One point keeps its lists."""
    if size is None:
        return entries
    if isinstance(entries, list):
        return np.stack([_array(entry, size) for entry in entries], axis=1)
    return np.broadcast_to(entries, (size,))


def _entries(array: np.ndarray, size: int | None):
    """Nested lists of the entries of `array`, as `_array` takes them;
    the lists of one point pass as they are."""
    if size is None:
        return array if isinstance(array, list) else array.tolist()
    if array.ndim == 1:
        return array
    return [_entries(array[:, i], size) for i in range(array.shape[1])]


def _span(n_exc: int, two_j: int) -> tuple[int, int]:
    """(gamma_min, dim) of subspace n_exc: at most 2j matter excitations,
    so the photon number runs from n_exc - min(n_exc, 2j) to n_exc."""
    matter = min(n_exc, two_j)
    return n_exc - matter, matter + 1


@functools.lru_cache(maxsize=64)
def _ladder(n_exc: int, dim: int) -> tuple[tuple[float, ...], ...]:
    """Row constants of an n_exc kernel: photon count n - k and matter
    count k of each row; for every row, k - 1 and sqrt(n - k + 1), which
    the rows below the first use."""
    k = range(dim)
    return (tuple(float(n_exc - i) for i in k), tuple(float(i) for i in k),
            tuple(float(i - 1) for i in k),
            tuple(math.sqrt(n_exc - i + 1) for i in k))


def _kernels(params, n_exc: int, dim: int, two_j, base):
    """Symmetric tridiagonal dim x dim kernels of subspace n_exc,
    matter-indexed.

    Diagonal (n-k)*omega_c + k*omega_0 + base; off-diagonal
    chi*sqrt(n-k+1)*sqrt(k(2j-k+1)).
    """
    photons, matter, below, root = _ladder(n_exc, dim)
    rows = [[0.0] * dim for _ in range(dim)]
    for k in range(dim):
        rows[k][k] = (photons[k] * params.omega_c
                      + matter[k] * params.omega_0) + base
    for k in range(1, dim):
        rows[k][k - 1] = rows[k - 1][k] = (
            params.chi * root[k] * _sqrt(matter[k] * (two_j - below[k])))
    return _array(rows, _size(params))


def _signed(rows: list) -> list:
    """Photon-indexed eigenvector rows from the matter-indexed rows of
    entries `rows`, each eigenvector (column) signed so that its
    most-photonic nonzero component is positive. The lists of `rows`
    are reused; its entries are not changed."""
    # matter row k holds photon number n - k, so the most photonic nonzero
    # component is a column's lead, its first nonzero entry: row 0 unless
    # a coupling vanishes
    for s in range(len(rows)):
        lead = rows[0][s]
        for row in rows[1:]:
            lead = lead + (lead == 0.0) * row[s]
        sign = 1.0 - 2.0 * (lead < 0.0)  # negates exactly; 0.0 to -0.0
        for row in rows:
            row[s] = sign * row[s]
    rows.reverse()
    return rows


def theta_plus(omega_0: float, omega_c: float, g: float) -> float:
    """Mixing angle of the upper n=1 polariton, tan = 2g/(R + Delta)
    = (R - Delta)/(2g) with Delta = omega_0 - omega_c and
    R = hypot(2g, Delta); the sign of Delta picks the form without
    cancellation."""
    delta = omega_0 - omega_c
    r = math.hypot(2 * g, delta)
    if delta < 0:
        return math.atan2(r - delta, 2 * g)
    return math.atan2(2 * g, r + delta)


@functools.lru_cache(maxsize=64)
def _radicands(n: int, gamma: range,
               raising: bool) -> tuple[tuple[float, float], ...]:
    """(ladder factor, shift that two_j takes) of `_counter_rotating`,
    per source photon number; both are integers."""
    if raising:
        return tuple((float((g + 1) * (n - g + 1)), float(g - n))
                     for g in gamma)
    return tuple((float(g * (n - g)), float(g - n + 1)) for g in gamma)


def _counter_rotating(chi, two_j, n: int, gamma: range,
                      raising: bool) -> list:
    """A_+ (raising) or A_- out of (n, gamma), for source photon numbers
    gamma inside the subspace. The radicands are exact integers."""
    return [chi * _sqrt(ladder * (two_j + shift))
            for ladder, shift in _radicands(n, gamma, raising)]


class _Sector:
    """One (N, j) sector at an operating point or a stack of them.

    Each subspace is solved once, on first use, and its energies and
    photon-indexed eigenvector rows are kept as entries as long as the
    object lives, which is one call of `dressed_subspace` or
    `extraction_strengths`. One point takes its labels as built-in
    numbers, so numpy labels give built-in floats too. An empty stack
    has no 2j, and its subspaces take the sizes of 2j = 0.
    """

    def __init__(self, params, n_electrons, two_j):
        self.params, self.size = params, _size(params)
        if self.size is None:
            n_electrons, two_j = (np.asarray(label).item()
                                  for label in (n_electrons, two_j))
            self._two_j_range = (int(two_j),) * 2
        else:
            two_js = two_j if np.size(two_j) else 0
            self._two_j_range = (int(np.min(two_js)), int(np.max(two_js)))
        self.n_electrons, self.two_j = n_electrons, two_j
        self.base = sector_base_energy(params, n_electrons, two_j / 2)
        self._solved = {}

    def span(self, n_exc: int) -> tuple[int, int]:
        """`_span` of subspace n_exc, which every point must share."""
        low = _span(n_exc, self._two_j_range[0])
        high = _span(n_exc, self._two_j_range[1])
        if low != high:
            raise ConfigurationError(
                f"subspace {n_exc} holds {low[1]} to {high[1]} states "
                "across the stack; its points need one size")
        return low

    def solve(self, n_exc: int) -> tuple[list, list]:
        """Ascending energies and photon-indexed eigenvector rows of
        subspace n_exc, as entries."""
        if n_exc in self._solved:
            return self._solved[n_exc]
        if n_exc == 0:  # |m = -j> without photons, at the base energy
            solved = [self.base + 0.0], [[1.0]]
        else:
            energies, vecs = np.linalg.eigh(_kernels(
                self.params, n_exc, self.span(n_exc)[1], self.two_j,
                self.base))
            solved = (_entries(energies, self.size),
                      _signed(_entries(vecs, self.size)))
        self._solved[n_exc] = solved
        return solved


def _any(flag) -> bool:
    """Whether a bool entry holds anywhere."""
    return flag.any() if isinstance(flag, np.ndarray) else flag


def _denominators(sector: _Sector, n_t: int, t_energies: list,
                  energies: list, w: list) -> list:
    """E_t - E_beta, row t and column beta, of the dressing into subspace
    n_t, with W = V|beta> as rows of entries.

    A state the counter-rotating terms do not reach stays undressed; for
    any other, an energy denominator below 1e-9 is rejected rather than
    regularized. Once any denominator is that small, those of the
    unreached states are set to 1, as their overlaps are 0.
    """
    denom = [[e_t - e for e in energies] for e_t in t_energies]
    close = False
    for row in denom:
        for d in row:
            close = close | (abs(d) < _DENOM_FLOOR)
    if not _any(close):
        return denom
    denom, w = (np.asarray(_array(x, sector.size)) for x in (denom, w))
    reached = w.any(axis=-2)[..., None, :]
    close = (np.abs(denom) < _DENOM_FLOOR) & reached
    if close.any():
        bad = close.any(axis=(-2, -1))
        j = np.broadcast_to(sector.two_j, bad.shape)[bad][0] / 2
        raise DegenerateDenominator(
            f"|E_q - E_beta| = {np.abs(denom[close]).min():.3g} below "
            f"{_DENOM_FLOOR} for target sector n={n_t}, j={j}")
    return _entries(np.where(reached, denom, 1.0), sector.size)


def _dress(sector: _Sector, n_exc: int,
           read: set[int] | None = None) -> tuple[list, dict]:
    """Energies and first-order admixture of every eigenstate of
    subspace n_exc of `sector`, as entries.

    With W = V|beta> for all source states beta as columns, the n +- 2
    blocks are U = -V_t ((V_t^T W) / (E_t - E_beta)), their denominators
    checked by `_denominators`. Returns the ascending energies [s] and
    {n: (gamma_min, rows [d_n][s])}; column s belongs to eigenstate s.

    `read`, when given, names the blocks a bracket reads. A target
    block outside it is only checked: its subspace is solved and its
    denominators are rejected as above, but it is neither built nor
    returned. The sizes of the source and target subspaces are checked
    before any is solved.
    """
    gmin, dim = sector.span(n_exc)
    targets = [(step, sector.span(n_exc + step)) for step in (+2, -2)
               if n_exc + step >= 0]
    energies, vecs = sector.solve(n_exc)
    blocks = {n_exc: (gmin, vecs)}
    for step, (t_gmin, t_dim) in targets:
        n_t = n_exc + step
        # source row i (photon gmin + i) feeds target row i + shift, which
        # holds one photon more (step +2) or less (step -2)
        shift = gmin + step // 2 - t_gmin
        lo = max(0, -shift)
        hi = min(dim, t_dim - shift)
        if lo >= hi:
            continue
        t_energies, t_vecs = sector.solve(n_t)
        amp = _counter_rotating(sector.params.chi, sector.two_j, n_exc,
                                range(gmin + lo, gmin + hi), step > 0)
        # the rows of W = V|beta> that can be nonzero, and the target
        # basis on them
        w = [[a * v for v in vecs[i]] for a, i in zip(amp, range(lo, hi))]
        t_rows = t_vecs[lo + shift:hi + shift]
        denom = _denominators(sector, n_t, t_energies, energies, w)
        if read is not None and n_t not in read:
            continue
        coef = []
        for q, row in enumerate(denom):
            coef_q = []
            for s in range(dim):
                total = t_rows[0][q] * w[0][s]
                for i in range(1, hi - lo):
                    total = total + t_rows[i][q] * w[i][s]
                coef_q.append(total / row[s])
            coef.append(coef_q)
        block = []
        for t_row in t_vecs:
            block_row = []
            for s in range(dim):
                total = t_row[0] * coef[0][s]
                for q in range(1, t_dim):
                    total = total + t_row[q] * coef[q][s]
                block_row.append(-total)
            block.append(block_row)
        blocks[n_t] = (t_gmin, block)
    return energies, blocks


def _block_arrays(blocks: dict, size: int | None) -> dict:
    """`_dress` blocks as `_array` gives them: (size, d_n, d) arrays for a
    stack, the rows themselves at one point."""
    return {n: (gmin, _array(rows, size)) for n, (gmin, rows) in blocks.items()}


def dressed_subspace(params, n_electrons, two_j, n_exc: int) -> tuple:
    """Energies and first-order dressed blocks of every eigenstate of one
    (N, j, n_exc) subspace, at one operating point or a stack of them.

    `params` is a SystemParams or a ParamStack; `n_electrons` and `two_j`
    are numbers or (P,) columns likewise, and the energies include their
    `sector_base_energy`. Every point needs 0 <= 2j <= N with N - 2j even
    (InvalidQuantumNumbers otherwise). Subspace n holds min(n, 2j) + 1
    states; a stack whose points differ in the size of subspace n_exc or
    of n_exc +- 2 is a ConfigurationError, raised before any solve.
    Returns the ascending energies (..., d) and {n: (gamma_min, (..., d_n,
    d))}, column s belonging to eigenstate s (labels from
    `subspace_labels`); `subspace_bracket` takes the blocks. A stack gets
    arrays with a leading axis of P points; one point gets built-in
    floats in nested lists, bit for bit the row of a one-point stack.
    """
    n, two_js = np.broadcast_arrays(n_electrons, two_j)
    bad = ~((two_js >= 0) & (two_js <= n) & ((n - two_js) % 2 == 0))
    if bad.any():
        at = np.argmax(bad)
        raise InvalidQuantumNumbers(
            f"no sector j = {two_js.flat[at] / 2:.17g} at N = "
            f"{n.flat[at]:.17g}: need 0 <= 2j <= N with N - 2j even")
    size = _size(params)
    energies, blocks = _dress(_Sector(params, n_electrons, two_j), n_exc)
    return _array(energies, size), _block_arrays(blocks, size)


# ---------------------------------------------------------------------------
# Clebsch-Gordan machinery
# ---------------------------------------------------------------------------

def _cg(j, m, branch: str, column: int):
    # column 0 (C) or 1 (D) of clebsch_coeffs, without the checks, of
    # float entries or columns
    if branch == "-":
        return _sqrt(((j + m) if column else (j - m)) / (2 * j))
    if column:
        return -_sqrt((j - m + 1) / (2 * j + 2))
    return _sqrt((j + m + 1) / (2 * j + 2))


def clebsch_coeffs(j_total: float, m_total: float,
                   branch: str) -> tuple[float, float]:
    """(C, D) coefficients coupling j2 x 1/2 -> (j_total, m_total).

    C = <j2, M+1/2; 1/2, -1/2 | J, M> and D = <j2, M-1/2; 1/2, +1/2 |
    J, M>, with branch '+' meaning j2 = J + 1/2 and '-' meaning
    j2 = J - 1/2. Exact table values, including the minus sign of D on
    the '+' branch.  J and M within 1e-12 of half-integers are taken as
    those; then |M| <= J with J - M an integer is required.
    """
    j, m = j_total, m_total
    if not (_half_int(j) and _half_int(m)):
        raise InvalidQuantumNumbers(f"invalid (J, M) = ({j}, {m})")
    two_j, two_m = round(2 * j), round(2 * m)
    if abs(two_m) > two_j or (two_j - two_m) % 2:
        raise InvalidQuantumNumbers(f"invalid (J, M) = ({j}, {m})")
    j, m = two_j / 2, two_m / 2
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


def _bracket(a_blocks: dict, j_a, b_blocks: dict, j_b, dn: int,
             up: bool) -> list:
    """`subspace_bracket` over entries: the blocks hold rows of entries,
    as `_dress` gives them; returns one entry per state of B."""
    width = len(next(iter(b_blocks.values()))[1][0])
    amp = [0.0] * width
    for x, shift, column in _BRACKET_TERMS[dn, up]:
        terms = []  # (u^A, the row of u^B, F), in (n, gamma) order
        for n in sorted(a_blocks):
            if n + x not in b_blocks:
                continue
            ga, a = a_blocks[n]
            gb, b = b_blocks[n + x]
            for gamma in range(max(ga, gb), min(ga + len(a), gb + len(b))):
                m = float(n - gamma) - j_a  # exact: half-integers
                if dn < 0:
                    weight = _cg(j_a, m, "+" if up else "-", column)
                else:
                    weight = _cg(j_b, m + shift, "-" if up else "+", column)
                terms.append((a[gamma - ga][0], b[gamma - gb], weight))
        if not terms:
            continue
        for s in range(width):
            ua, ub, weight = terms[0]
            total = ub[s] * ua * weight
            for ua, ub, weight in terms[1:]:
                total = total + ub[s] * ua * weight
            amp[s] = amp[s] + total
    return amp


def subspace_bracket(a_blocks: dict, j_a, b_blocks: dict, j_b, dn: int,
                     up: bool):
    """Four-branch bracket between state A and every state of B.

    `a_blocks` is {n: (gamma_min, (..., d_n, 1))}, `b_blocks` is
    {n: (gamma_min, (..., d_n, s))}, both as `dressed_subspace` returns
    them: nested lists of floats, or 2-D arrays, for one operating point
    and arrays with a leading axis for a stack; (dn, up) is the transfer
    (Delta N, Delta j > 0). Returns (..., s): built-in floats in a list
    at one point, an array for a stack. Each pseudo-inner product sums
    in (n, gamma) order.
    """
    any_b = next(iter(b_blocks.values()))[1]
    size = (len(any_b) if isinstance(any_b, np.ndarray) and any_b.ndim == 3
            else None)
    a_rows, b_rows = ({n: (gmin, _entries(coeffs, size))
                       for n, (gmin, coeffs) in blocks.items()}
                      for blocks in (a_blocks, b_blocks))
    return _array(_bracket(a_rows, j_a, b_rows, j_b, dn, up), size)


def _bracket_reads(a_blocks: dict, dn: int, up: bool) -> set[int]:
    """The blocks of B that `subspace_bracket` can read, given A's."""
    return {n + x for n in a_blocks for x, _, _ in _BRACKET_TERMS[dn, up]}


def extraction_strengths(params, n_excs) -> tuple:
    """Ungated extraction from the dressed j = N/2 ground into subspaces
    of the (N - 1, j - 1/2) sector; `params` as for `dressed_subspace`.

    Returns the ground energy (..., 1) and, per n_exc of `n_excs`, that
    subspace's energies, blocks and strengths N |bracket|^2, (..., d):
    arrays for a stack, built-in floats in nested lists at one point, as
    `dressed_subspace` returns them.
    The blocks are the subspace's own and those of its targets that the
    bracket reads: the ground has blocks n = 0 and 2, so it reads the
    final blocks n <= 2. A target above that (n_exc + 2 from n_exc = 1
    on) is only checked: its denominators are rejected on the same
    energies as in `dressed_subspace`, with the same DegenerateDenominator,
    but its block is not built. Each subspace of a sector is solved once
    per call.
    """
    size = _size(params)
    sector = _Sector(params, params.n_electrons, params.n_electrons)
    n = sector.n_electrons  # a built-in number at one point
    ground_energy, ground = _dress(sector, 0)
    final = _Sector(params, n - 1, n - 1)
    read = _bracket_reads(ground, -1, False)
    finals = []
    for n_exc in n_excs:
        energies, blocks = _dress(final, n_exc, read)
        amp = _bracket(ground, n / 2, blocks, (n - 1) / 2, -1, False)
        finals.append((_array(energies, size), _block_arrays(blocks, size),
                       _array([n * a * a for a in amp], size)))  # kappa = N
    return _array(ground_energy, size), finals


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

    Subspace n_exc holds min(n_exc, 2j) + 1 states (``_span``): 'G' for
    n_exc = 0, ('-', '+') for the single-polariton subspace and
    ('--', '+-', '++') for the double one, the first of them when it holds
    fewer; 'n<n_exc>.<q>' above.
    """
    _, dim = _span(n_exc, two_j)
    if n_exc < len(_LABELS):
        return _LABELS[n_exc][:dim]
    return tuple(f"n{n_exc}.{q}" for q in range(dim))


def dressed_sector_states(params: SystemParams, n_electrons: int, j: float,
                          n_exc: int) -> list[DressedState]:
    """All dressed eigenstates of one (N, j, n_exc) subspace, labelled by
    `subspace_labels`. j must be a half-integer, n_exc non-negative and
    (N, j) a sector as `dressed_subspace` requires (InvalidQuantumNumbers
    otherwise)."""
    if n_exc < 0 or not _half_int(j):
        raise InvalidQuantumNumbers(
            f"invalid subspace (j={j}, n_exc={n_exc})")
    two_j = round(2 * j)
    energies, blocks = dressed_subspace(params, n_electrons, two_j, n_exc)
    return [DressedState(j=j, n_electrons=n_electrons, n_exc=n_exc,
                         label=label, energy=float(energies[q]),
                         blocks={n: (g, [row[q:q + 1] for row in c])
                                 for n, (g, c) in blocks.items()})
            for q, label in enumerate(subspace_labels(n_exc, two_j))]


def dressed_ground_state(params: SystemParams) -> DressedState:
    """Dressed ground of the symmetric j = N/2 sector."""
    n = params.n_electrons
    return dressed_sector_states(params, n, n / 2, 0)[0]


def fermionic_rate_arrays(points: SystemParams | ParamStack,
                          ) -> tuple[np.ndarray, ...]:
    """Extraction rates G_N -> polaritons of the (N-1) sector at every
    operating point of a stack, or at one point: the six arrays of the
    tier contract stated in ``gse.emission``.

    Rates are summed over both leads; at the default chemical
    potentials only the left lead gates open. The photon weight is the
    photonic fraction |u_{gamma=1}(1)|^2 of the bare polariton.

    Points are grouped by min(N - 1, 3), the matter reach of the largest
    subspace the pipeline solves (n_exc = 3 of the N - 1 sector, which the
    single polaritons' dressing reaches), so every subspace of a group has
    one size. From N = 4 on it is the same, so one group holds them all
    and each kernel is one (P, d, d) eigensolve.
    """
    if isinstance(points, SystemParams):
        return tuple(column[0] for column in
                     fermionic_rate_arrays(ParamStack.of([points])))
    n = points.n_electrons
    if np.any(n < 2):
        raise ConfigurationError("fermionic single-polariton rates need "
                                 f"N >= 2, got {int(n.min())}")
    group = np.minimum(n - 1, 3)
    out = np.empty((6, len(points)))
    for key in sorted(set(group.tolist())):
        index = np.nonzero(group == key)[0]
        out[:, index] = _group_rates(points.take(index))
    return tuple(out)


def _group_rates(points: ParamStack) -> tuple[np.ndarray, ...]:
    """Rates of the points of one group of `fermionic_rate_arrays`."""
    e_ground, [(e_dark, _, _), (e_pol, polaritons, bright)] = \
        extraction_strengths(points, (0, 1))
    delta = e_pol - e_ground
    rates = (np.where(chemical_gate(delta, points.mu_l[:, None], "out"),
                      bright, 0.0)
             + np.where(chemical_gate(delta, points.mu_r[:, None], "out"),
                        bright, 0.0))
    omega = e_pol - e_dark
    photon = polaritons[1][1][:, 1, :]  # gamma = 1 row of '-' and '+'
    weight = photon * photon
    return (omega[:, 1], omega[:, 0], rates[:, 1], rates[:, 0],
            weight[:, 1], weight[:, 0])


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

    It is evaluated as that total T and share, with no difference of
    nearly equal terms, so the weaker branch keeps its digits when
    g << |w_0 - w_c|: with S = w_0 w_c - g^2, Delta = w_0 - w_c and
    R = hypot(2g, Delta), the share's tangent is

        t = tan(theta_plus - arctan(g/w_0))
          = 4 g S / ((w_0 + w_c + R)(w_0 (R + Delta) + 2 g^2)),

    and Gamma_+ = T t^2/(1 + t^2), Gamma_- = T/(1 + t^2).
    """
    if branch not in ("+", "-"):
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    g = collective_coupling(params)
    if g == 0:
        return 0.0
    w0, wc = params.omega_0, params.omega_c
    delta = w0 - wc
    r = math.hypot(2 * g, delta)
    # R + Delta, written as 4g^2/(R - Delta) where the sum would cancel
    r_delta = r + delta if delta >= 0 else 4 * g * g / (r - delta)
    s = w0 * wc - g * g
    total = (g * wc / ((w0 + wc) * s)) ** 2 * (w0 * w0 + g * g)
    t = 4 * g * s / ((w0 + wc + r) * (w0 * r_delta + 2 * g * g))
    t2 = t * t
    return total * (t2 if branch == "+" else 1.0) / (1.0 + t2)
