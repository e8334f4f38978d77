"""Exact bosonic model: Hopfield-Bogoliubov diagonalization.

The quadratic Hamiltonian (light mode a, collective matter mode b,
counter-rotating terms included) is diagonalized by a Bogoliubov
transformation P acting on O = (a', a, b', b) (primes are daggers).
Closed-form eigenvalues lambda_pm and component vectors v are used
throughout; a numerical 4x4 eigensolve is kept as a cross-check only.

Sign and normalization conventions
----------------------------------
* v = (v1, v2, v3, v4) is pseudo-normalized, v1^2+v3^2-v2^2-v4^2 = 1,
  with v1 > 0 (automatic: the printed v1 is positive for lambda > 0).
* The component vectors are row eigenvectors of the 4x4 kernel: they
  satisfy Hbar^T v = lambda v (equivalently eta.v is a right
  eigenvector of eta.Hbar with eta = diag(1,-1,1,-1)). kernel_residual
  checks the eigenrelation in this row form.
* P rows are (p+', p+, p-', p-) in the same coefficient layout, so
  P eta P^T = eta and P^{-1} = eta P^T eta exactly.

Rates are in units of gamma_el.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, Unstable
from .params import ParamStack, SystemParams, collective_coupling, dicke_stable

__all__ = [
    "HopfieldModes",
    "ETA",
    "lambda_pm",
    "hopfield_modes",
    "mode_vectors",
    "full_tier",
    "hbar_kernel",
    "kernel_residual",
    "pseudo_norm",
    "dlambda_dg",
    "dp_matrix",
    "single_polariton_rate_full",
    "double_polariton_rate_full",
    "photon_weight_full",
]

ETA = np.diag([1.0, -1.0, 1.0, -1.0])

_PHOTON = np.array([1.0, 0.0, 0.0, 0.0])
_MATTER = np.array([0.0, 0.0, 1.0, 0.0])

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class HopfieldModes:
    lambda_plus: float
    lambda_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray
    p_matrix: np.ndarray


def _check_stable(omega_0, omega_c, g) -> None:
    """Raise Unstable at the first point (of arrays) with g < 0 or
    outside the Dicke bound (``params.dicke_stable``)."""
    bad = (g < 0) | np.logical_not(dicke_stable(omega_0, omega_c, g))
    if not np.any(bad):
        return
    shape = np.broadcast_shapes(np.shape(omega_0), np.shape(omega_c),
                                np.shape(g))
    first = np.broadcast_to(bad, shape)
    omega_0, omega_c, g = (float(np.broadcast_to(v, shape)[first][0])
                           for v in (omega_0, omega_c, g))
    if g < 0:
        raise Unstable("negative coupling", g=g)
    raise Unstable(
        f"g={g:.6g} >= sqrt(omega_0*omega_c)/2="
        f"{math.sqrt(omega_0 * omega_c) / 2:.6g}: lambda_minus not real",
        omega_0=omega_0, omega_c=omega_c, g=g)


def lambda_pm(omega_0: float, omega_c: float, g: float) -> tuple[float, float]:
    """Closed-form polariton eigenvalues (lambda_plus, lambda_minus).

    Elementwise over arrays.
    """
    _check_stable(omega_0, omega_c, g)
    split = omega_0 * omega_0 - omega_c * omega_c
    s = np.sqrt(split * split + 16 * (g * g) * omega_0 * omega_c)
    total = omega_0 * omega_0 + omega_c * omega_c
    return np.sqrt((total + s) / 2), np.sqrt((total - s) / 2)


def _raw_components(omega_0, omega_c, g, lam):
    r1 = g * (lam + omega_0) * (lam + omega_c)
    r2 = -g * (lam + omega_0) * (lam - omega_c)
    r3 = 2 * (g * g) * omega_c + (lam + omega_0) * (lam * lam - omega_c * omega_c)
    r4 = -2 * (g * g) * omega_c
    return np.stack(np.broadcast_arrays(r1, r2, r3, r4), axis=-1)


def _component_vector(omega_0, omega_c, g, lam) -> np.ndarray:
    r = _raw_components(omega_0, omega_c, g, lam)
    # scale the largest component into [1/2, 1) by a power of two: exact,
    # and no square in the norm can then under- or overflow
    _, exponent = np.frexp(np.max(np.abs(r), axis=-1, keepdims=True))
    r = np.ldexp(r, -exponent)
    return r / np.sqrt(pseudo_norm(r))[..., None]


def pseudo_norm(v: np.ndarray) -> float:
    """v1^2 + v3^2 - v2^2 - v4^2 over the last axis."""
    v = np.asarray(v)
    return (v[..., 0] * v[..., 0] + v[..., 2] * v[..., 2]
            - v[..., 1] * v[..., 1] - v[..., 3] * v[..., 3])


def hbar_kernel(omega_0: float, omega_c: float, g: float) -> np.ndarray:
    """The explicit 4x4 Hopfield kernel on O = (a', a, b', b)."""
    return np.array([
        [omega_c, 0.0, g, -g],
        [0.0, -omega_c, g, -g],
        [g, -g, omega_0, 0.0],
        [g, -g, 0.0, -omega_0],
    ])


def mode_vectors(omega_0, omega_c, g):
    """(lambda_plus, lambda_minus, v_plus, v_minus), elementwise over
    arrays; each v has a trailing axis of length 4.

    At g = 0 the closed-form components degenerate to 0/0, so the
    decoupled unit vectors are used (photon branch is the one with
    lambda = omega_c; on an exact g=0 resonance the '-' label goes to
    the photon mode, as in the other two tiers). Below the Dicke bound
    lambda_minus > 0, so a lambda_minus that cancelled to 0 is reported
    as NaN.
    """
    lp, lm = lambda_pm(omega_0, omega_c, g)
    lm = np.where(lm == 0, np.nan, lm)
    with np.errstate(divide="ignore", invalid="ignore"):
        vp = _component_vector(omega_0, omega_c, g, lp)
        vm = _component_vector(omega_0, omega_c, g, lm)
    decoupled = (np.asarray(g) == 0)[..., None]
    photon_up = (np.asarray(omega_c) > omega_0)[..., None]
    vp = np.where(decoupled, np.where(photon_up, _PHOTON, _MATTER), vp)
    vm = np.where(decoupled, np.where(photon_up, _MATTER, _PHOTON), vm)
    return lp, lm, vp, vm


def _p_layout(vp: np.ndarray, vm: np.ndarray) -> np.ndarray:
    """Bogoliubov P from the '+' and '-' component vectors (or their
    g-derivatives): each vector is a row, and the next row is the same
    vector with entries 0, 1 and 2, 3 swapped."""
    return np.array([
        [vp[0], vp[1], vp[2], vp[3]],
        [vp[1], vp[0], vp[3], vp[2]],
        [vm[0], vm[1], vm[2], vm[3]],
        [vm[1], vm[0], vm[3], vm[2]],
    ])


def hopfield_modes(omega_0: float, omega_c: float, g: float) -> HopfieldModes:
    """Closed-form modes; raises Unstable beyond 4 g^2 >= omega_0 omega_c."""
    lp, lm, vp, vm = mode_vectors(omega_0, omega_c, g)
    return HopfieldModes(lambda_plus=float(lp), lambda_minus=float(lm),
                         v_plus=vp, v_minus=vm, p_matrix=_p_layout(vp, vm))


def kernel_residual(omega_0: float, omega_c: float, g: float,
                    modes: HopfieldModes | None = None) -> float:
    """max_pm ||Hbar^T v - lambda v||_inf for the closed-form vectors.

    The printed component vectors act as rows of P, so the
    eigenrelation they satisfy is the row (transposed) one.
    """
    if modes is None:
        modes = hopfield_modes(omega_0, omega_c, g)
    hbar_t = hbar_kernel(omega_0, omega_c, g).T
    res_p = hbar_t @ modes.v_plus - modes.lambda_plus * modes.v_plus
    res_m = hbar_t @ modes.v_minus - modes.lambda_minus * modes.v_minus
    return max(np.max(np.abs(res_p)), np.max(np.abs(res_m)))


# ---------------------------------------------------------------------------
# analytic g-derivatives (finite differences kept as a cross-check)
# ---------------------------------------------------------------------------

def dlambda_dg(omega_0: float, omega_c: float, g: float,
               branch: str) -> float:
    """d lambda_pm / dg = pm 4 g omega_0 omega_c / (lambda sqrt(W))."""
    w = (omega_0**2 - omega_c**2) ** 2 + 16 * g**2 * omega_0 * omega_c
    lp, lm = lambda_pm(omega_0, omega_c, g)
    if branch == "+":
        return 4 * g * omega_0 * omega_c / (lp * math.sqrt(w))
    if branch == "-":
        return -4 * g * omega_0 * omega_c / (lm * math.sqrt(w))
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")


def _dv_dg(omega_0, omega_c, g, lam, dlam) -> np.ndarray:
    r = _raw_components(omega_0, omega_c, g, lam)
    d1 = (lam + omega_0) * (lam + omega_c) \
        + g * dlam * ((lam + omega_c) + (lam + omega_0))
    d2 = -((lam + omega_0) * (lam - omega_c)
           + g * dlam * ((lam - omega_c) + (lam + omega_0)))
    d3 = 4 * g * omega_c + dlam * (lam**2 - omega_c**2) \
        + (lam + omega_0) * 2 * lam * dlam
    d4 = -4 * g * omega_c
    d = np.array([d1, d2, d3, d4])
    q = r[0]**2 + r[2]**2 - r[1]**2 - r[3]**2
    z = math.sqrt(q)
    dz = (r[0] * d1 + r[2] * d3 - r[1] * d2 - r[3] * d4) / z
    return d / z - r * dz / q


def dp_matrix(omega_0: float, omega_c: float, g: float,
              derivative: str = "analytic") -> np.ndarray:
    """dP/dg, either analytic (default) or central finite differences.

    The FD step is 1e-6*omega_0; the two must agree to 1e-6 relative,
    which the test suite asserts.
    """
    if derivative == "fd":
        h = 1e-6 * omega_0
        pp = hopfield_modes(omega_0, omega_c, g + h).p_matrix
        pm = hopfield_modes(omega_0, omega_c, g - h).p_matrix
        return (pp - pm) / (2 * h)
    if derivative != "analytic":
        raise ValueError("derivative must be 'analytic' or 'fd'")
    lp, lm = lambda_pm(omega_0, omega_c, g)
    dvp = _dv_dg(omega_0, omega_c, g, lp, dlambda_dg(omega_0, omega_c, g, "+"))
    dvm = _dv_dg(omega_0, omega_c, g, lm, dlambda_dg(omega_0, omega_c, g, "-"))
    return _p_layout(dvp, dvm)


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def single_polariton_rate_full(params: SystemParams) -> tuple[float, float]:
    """(rate_plus, rate_minus) = (P23^2, P43^2), units of gamma_el: the
    rates of `full_tier` at one operating point."""
    _, _, rate_p, rate_m, _, _ = full_tier(params)
    return float(rate_p), float(rate_m)


def full_tier(points: SystemParams | ParamStack) -> tuple[np.ndarray, ...]:
    """The exact bosonic tier over the points; the tier contract is
    stated in ``gse.emission``.

    Frequencies and weights use the modes at g_N = chi sqrt(N). The
    rates' bra side lives in the (N-1)-electron sector, so their P is
    evaluated at g_{N-1} = chi sqrt(N-1); the per-site 1/sqrt(N) cancels
    against the site sum exactly as in the perturbative model. One
    closed-form evaluation covers both couplings.
    """
    chi, n = points.chi, points.n_electrons
    g = np.stack([chi * np.sqrt(n), chi * np.sqrt(n - 1)])
    lp, lm, vp, vm = mode_vectors(points.omega_0, points.omega_c, g)
    # P23 = v_plus[3] and P43 = v_minus[3]; both vanish at g = 0
    p23, p43 = vp[1, ..., 3], vm[1, ..., 3]
    return (lp[0], lm[0], p23 * p23, p43 * p43,
            _photon_weight(vp[0]), _photon_weight(vm[0]))


def _photon_weight(v):
    # components that overflowed to inf give NaN, which callers report
    with np.errstate(invalid="ignore"):
        amp = v[..., 0] - v[..., 1]
    return amp * amp


def double_polariton_rate_full(params: SystemParams, pair: str,
                               derivative: str = "analytic") -> float:
    """Double-polariton GSE rate, units of gamma_el; scales as 1/N.

    Implements N |M|^2 with
    M_pair = [P-product - (g_N/2) sum_j dP_{row j}/dg P^{-1}_{j col}] / N
    (an extra 1/sqrt2 on both terms for the ++ and -- pairs). The '+-'
    element is evaluated in its first printed form; the alternative
    form agrees with it only to leading order in g.

    Exact diagonalization (``gse.oracle``, N = 8, g_N = 0.01 to 0.2)
    confirms the '--' and '++' rates within a factor 1.5. It does not
    confirm '+-', which is 39 to 2.8e5 times the exact strength there
    (ROADMAP direction 9).
    """
    if params.n_electrons < 2:
        raise ConfigurationError(
            f"double-polariton rate needs N >= 2, got {params.n_electrons}")
    g_n = collective_coupling(params)
    if g_n == 0:
        return 0.0
    modes = hopfield_modes(params.omega_0, params.omega_c, g_n)
    p = modes.p_matrix
    p_inv = ETA @ p.T @ ETA
    dp = dp_matrix(params.omega_0, params.omega_c, g_n, derivative)
    if pair == "++":
        bracket = p[1, 3] * p[1, 2] / SQRT2 \
            - g_n * (dp[1] @ p_inv[:, 0]) / (2 * SQRT2)
    elif pair == "--":
        bracket = p[3, 3] * p[3, 2] / SQRT2 \
            - g_n * (dp[3] @ p_inv[:, 2]) / (2 * SQRT2)
    elif pair == "+-":
        bracket = p[1, 3] * p[3, 2] - g_n * (dp[1] @ p_inv[:, 2]) / 2
    else:
        raise ValueError(f"pair must be '++', '--' or '+-', got {pair!r}")
    return bracket**2 / params.n_electrons


def photon_weight_full(modes: HopfieldModes, branch: str) -> float:
    """|alpha_ph^pm|^2 = (v1 - v2)^2."""
    if branch == "+":
        return float(_photon_weight(modes.v_plus))
    if branch == "-":
        return float(_photon_weight(modes.v_minus))
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")
