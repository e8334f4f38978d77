"""Perturbative bosonic model: JC polaritons plus counter-rotating mixing.

The rotating-wave 2x2 kernel [[omega_c, g], [g, omega_0]] is
diagonalized by a rotation angle phi (alpha coefficients below); the
counter-rotating terms then mix polariton pairs with first-order
amplitudes beta. Emission rates follow from the golden-rule matrix
elements; the 1/sqrt(N) per site and the N-fold site sum are never
materialized separately, rates are computed in the N-cancelled form.

All rates are returned in units of gamma_el.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, Unstable, ZeroCoupling
from .params import ParamStack, SystemParams, collective_coupling

__all__ = [
    "JcPolaritonBasis",
    "PerturbativeCoefficients",
    "jc_basis",
    "rwa_basis",
    "pert_tier",
    "perturbative_betas",
    "dbetas_dg",
    "single_polariton_rate_pert",
    "double_polariton_rate_pert",
    "photon_weight_pert",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class JcPolaritonBasis:
    """Rotating-wave polariton basis.

    alpha_b_plus/minus are kept positive (the branch sign lives in
    alpha_a); x is the detuning ratio Delta/g with Delta = omega_0 - omega_c.
    """

    alpha_a_plus: float
    alpha_a_minus: float
    alpha_b_plus: float
    alpha_b_minus: float
    omega_plus: float
    omega_minus: float
    x: float


@dataclass(frozen=True)
class PerturbativeCoefficients:
    beta_pp: float
    beta_mm: float
    beta_pm: float


def jc_basis(omega_0: float, omega_c: float, g: float,
             allow_zero: bool = False) -> JcPolaritonBasis:
    """Diagonalize the 2x2 RWA kernel.

    Parameters
    ----------
    omega_0, omega_c : bare matter / cavity frequencies (omega_0 units).
    g : collective coupling g_N.
    allow_zero : return the exact decoupled limit at g = 0 instead of
        raising ZeroCoupling. At g = 0 on resonance the kernel is
        degenerate; the g -> 0+ limit (phi = pi/4) is used so sweeps
        stay continuous.

    Raises
    ------
    ZeroCoupling
        at g = 0 without ``allow_zero``.
    Unstable
        for g < 0, or at and beyond the RWA pole g^2 = omega_0 omega_c,
        where the lower RWA polariton frequency reaches zero.  This takes
        raw floats, so it guards its own domain; the Dicke bound that
        ``SystemParams`` enforces, 4 g^2 < omega_0 omega_c, is tighter.
    """
    if g < 0:
        raise Unstable("negative coupling", g=g)
    if g == 0 and not allow_zero:
        raise ZeroCoupling("g = 0; pass allow_zero=True for the limit branch")
    if g * g >= omega_0 * omega_c:
        raise Unstable(
            f"g^2 = {g*g:.6g} >= omega_0*omega_c = {omega_0*omega_c:.6g}",
            omega_0=omega_0, omega_c=omega_c, g=g)
    basis = rwa_basis(omega_0, omega_c, g)
    return JcPolaritonBasis(*(float(getattr(basis, f.name))
                              for f in fields(JcPolaritonBasis)))


def rwa_basis(omega_0, omega_c, g) -> JcPolaritonBasis:
    """`jc_basis` without its checks, elementwise over arrays.

    The fields are arrays shaped like the broadcast inputs; g = 0 gives
    the decoupled limit.
    """
    delta = omega_0 - omega_c
    big_r = np.hypot(2 * g, delta)
    # mixing angle: u = 2 phi, tan(u) = 2g/(omega_c - omega_0)
    phi = np.where((g == 0) & (delta == 0), math.pi / 4,
                   np.arctan2(2 * g, omega_c - omega_0) / 2)
    # a subnormal g overflows delta / g to the intended +-inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = np.where(g > 0, np.divide(delta, g),
                     np.where(delta == 0, 0.0, np.copysign(math.inf, delta)))
    return JcPolaritonBasis(
        alpha_a_plus=np.cos(phi),
        alpha_a_minus=-np.sin(phi),
        alpha_b_plus=np.sin(phi),
        alpha_b_minus=np.cos(phi),
        omega_plus=(omega_0 + omega_c + big_r) / 2,
        omega_minus=(omega_0 + omega_c - big_r) / 2,
        x=x,
    )


def perturbative_betas(basis: JcPolaritonBasis,
                       g: float) -> PerturbativeCoefficients:
    """First-order counter-rotating mixing amplitudes.

    beta_pp = -sqrt2 (g/2w+) a_a^- a_b^-, beta_mm = -sqrt2 (g/2w-) a_a^+ a_b^+,
    beta_pm = g/(w+ + w-) (a_b^+ a_a^- + a_b^- a_a^+). Elementwise on
    array fields.
    """
    b = basis
    beta_pp = -SQRT2 * g / (2 * b.omega_plus) * b.alpha_a_minus * b.alpha_b_minus
    beta_mm = -SQRT2 * g / (2 * b.omega_minus) * b.alpha_a_plus * b.alpha_b_plus
    beta_pm = (g / (b.omega_plus + b.omega_minus)
               * (b.alpha_b_plus * b.alpha_a_minus
                  + b.alpha_b_minus * b.alpha_a_plus))
    out = PerturbativeCoefficients(beta_pp, beta_mm, beta_pm)
    if max(np.max(np.abs(beta), initial=0.0)
           for beta in (beta_pp, beta_mm, beta_pm)) > 0.3:
        warnings.warn("counter-rotating amplitude |beta| > 0.3; "
                      "first-order treatment is questionable", stacklevel=2)
    return out


def single_polariton_rate_pert(basis: JcPolaritonBasis,
                               betas: PerturbativeCoefficients
                               ) -> tuple[float, float]:
    """(rate_plus, rate_minus) = |sqrt2 b_pp a_b^+ + b_pm a_b^-|^2 etc.

    N-independent at fixed g_N: the 1/sqrt(N) of the per-site element
    cancels against the N-fold site sum.
    """
    m_plus = SQRT2 * betas.beta_pp * basis.alpha_b_plus \
        + betas.beta_pm * basis.alpha_b_minus
    m_minus = SQRT2 * betas.beta_mm * basis.alpha_b_minus \
        + betas.beta_pm * basis.alpha_b_plus
    return m_plus * m_plus, m_minus * m_minus


def _angle_pieces(omega_0: float, omega_c: float, g: float):
    delta = omega_0 - omega_c
    big_r = math.hypot(2 * g, delta)
    u = math.atan2(2 * g, omega_c - omega_0)
    omega_plus = (omega_0 + omega_c + big_r) / 2
    omega_minus = (omega_0 + omega_c - big_r) / 2
    return delta, big_r, u, omega_plus, omega_minus


def dbetas_dg(omega_0: float, omega_c: float,
              g: float) -> tuple[float, float, float]:
    """Analytic d(beta_pp, beta_mm, beta_pm)/dg at fixed omega_0, omega_c.

    Chain rule through u = atan2(2g, omega_c-omega_0) and omega_pm;
    du/dg = 2(omega_c-omega_0)/R^2, d omega_pm/dg = +-2g/R.
    """
    if g == 0:
        raise ZeroCoupling("derivative at g = 0 is direction-dependent")
    _, big_r, u, wp, wm = _angle_pieces(omega_0, omega_c, g)
    du = 2 * (omega_c - omega_0) / big_r**2
    dwp, dwm = 2 * g / big_r, -2 * g / big_r
    s, c = math.sin(u), math.cos(u)
    d_pp = (s + g * c * du) / (2 * SQRT2 * wp) \
        - g * s * dwp / (2 * SQRT2 * wp**2)
    d_mm = -((s + g * c * du) / (2 * SQRT2 * wm)) \
        + g * s * dwm / (2 * SQRT2 * wm**2)
    d_pm = (c - g * s * du) / (omega_0 + omega_c)
    return d_pp, d_mm, d_pm


def double_polariton_rate_pert(params: SystemParams, pair: str) -> float:
    """GSE rate into a polariton pair, units of gamma_el.

    The per-channel element is beta^N - beta^{N-1} ~ dbeta/dN at fixed
    chi; with g_N = chi sqrt(N) the chain rule gives
    d/dN = (g_N/2N) d/dg_N, so the rate N|dbeta/dN|^2 evaluates to
    g_N^2 (dbeta/dg)^2 / (4N). Scales as 1/N at fixed g_N.

    pair is one of '++', '--', '+-'.
    """
    if params.n_electrons < 2:
        raise ConfigurationError(
            f"double-polariton rate needs N >= 2, got {params.n_electrons}")
    g_n = collective_coupling(params)
    if g_n == 0:
        return 0.0
    d_pp, d_mm, d_pm = dbetas_dg(params.omega_0, params.omega_c, g_n)
    try:
        d = {"++": d_pp, "--": d_mm, "+-": d_pm}[pair]
    except KeyError:
        raise ValueError(f"pair must be '++', '--' or '+-', got {pair!r}")
    return g_n**2 * d**2 / (4 * params.n_electrons)


def photon_weight_pert(basis: JcPolaritonBasis,
                       betas: PerturbativeCoefficients, branch: str) -> float:
    """Photonic weight |alpha_ph^pm|^2 = (alpha_a^pm)^2 (1 + beta_pmpm/sqrt2)^2."""
    if branch == "+":
        amp = basis.alpha_a_plus * (1 + betas.beta_pp / SQRT2)
    elif branch == "-":
        amp = basis.alpha_a_minus * (1 + betas.beta_mm / SQRT2)
    else:
        raise ValueError(f"branch must be '+' or '-', got {branch!r}")
    return amp * amp


def pert_tier(points: SystemParams | ParamStack) -> tuple[np.ndarray, ...]:
    """The perturbative tier over the points, at g_N = chi sqrt(N); the
    tier contract is stated in ``gse.emission``.

    At g = 0 the rates vanish and the photon sits wholly in the upper
    branch when omega_c > omega_0, else in the lower one; on an exact
    resonance that is the lower branch, as in the other two tiers.
    """
    g = points.chi * np.sqrt(points.n_electrons)
    basis = rwa_basis(points.omega_0, points.omega_c, g)
    # a decoupled point may divide 0 by 0 (omega_minus underflows); its
    # values are replaced below
    with np.errstate(divide="ignore", invalid="ignore"):
        betas = perturbative_betas(basis, g)
    rate_p, rate_m = single_polariton_rate_pert(basis, betas)
    decoupled = g == 0.0
    photon_up = np.where(points.omega_c > points.omega_0, 1.0, 0.0)
    return (basis.omega_plus, basis.omega_minus,
            np.where(decoupled, 0.0, rate_p), np.where(decoupled, 0.0, rate_m),
            np.where(decoupled, photon_up, photon_weight_pert(basis, betas, "+")),
            np.where(decoupled, 1.0 - photon_up,
                     photon_weight_pert(basis, betas, "-")))
