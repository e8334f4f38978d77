"""Physical parameters and the diamagnetic (Bogoliubov) renormalization.

Conventions
-----------
All frequencies are dimensionless, in units of the matter transition
frequency omega_0 (so omega_0 = 1 unless the caller insists otherwise).
Rates produced by the model modules are reported in units of gamma_el.

The diamagnetic A^2 term D(a+a')^2 with D = N chi^2/omega_0 is absorbed
by squeezing the cavity mode; downstream modules consume the squeezed
(omega_c, chi) pair with the tildes dropped. A `raw` switch in the CLI
lets users supply already-renormalized values.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, Unstable

__all__ = [
    "MAX_N",
    "SystemParams",
    "ParamStack",
    "RenormalizedParams",
    "collective_coupling",
    "renormalize_diamagnetic",
    "dicke_params",
    "params_for_coupling",
]


# The largest electron number float64, the dtype of ``ParamStack``, holds
# exactly.
MAX_N = 2**53


def dicke_stable(omega_0, omega_c, g):
    """The Dicke normal-phase bound 4 g^2 < omega_0 omega_c, elementwise.

    Below it both polariton frequencies are real; at and above it the
    lower one is not (superradiant instability).
    """
    return 4 * g * g < omega_0 * omega_c


@dataclass(frozen=True)
class SystemParams:
    """All physical inputs, in units of omega_0.

    mu_l / mu_r are the lead chemical potentials; omega_2_ref is the
    absolute energy of the upper dot level (the physics fixes only
    omega_2 - omega_1 = omega_0, so the reference is a config constant).
    The defaults put the system at the GSE operating point: injection
    into excited sectors gated off, every extraction channel open.
    """

    omega_c: float
    chi: float
    n_electrons: int
    n_sites_total: int
    omega_0: float = 1.0
    gamma_el: float = 1e-4
    gamma_cav: float = 1e-2
    gamma_dark_plus: float = 0.0
    gamma_dark_minus: float = 0.0
    mu_l: float = 2.4
    mu_r: float = 4.5
    omega_2_ref: float = 5.0

    def __post_init__(self):
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.omega_0 <= 0 or self.omega_c <= 0:
            raise ConfigurationError("omega_0 and omega_c must be positive")
        if self.chi < 0:
            raise ConfigurationError("chi must be non-negative")
        if not (1 <= self.n_electrons <= self.n_sites_total):
            raise ConfigurationError(
                f"need 1 <= n_electrons <= n_sites_total, got "
                f"{self.n_electrons}/{self.n_sites_total}")
        if self.n_electrons > MAX_N:
            raise ConfigurationError(
                f"n_electrons must be at most 2**53, got {self.n_electrons}")
        if self.gamma_el <= 0:
            raise ConfigurationError("gamma_el must be positive")
        if self.gamma_cav < 10 * self.gamma_el:
            raise ConfigurationError(
                "gamma_cav must dominate electron tunneling "
                "(gamma_cav >= 10*gamma_el)")
        if self.gamma_dark_plus < 0 or self.gamma_dark_minus < 0:
            raise ConfigurationError("dark conversion rates must be >= 0")
        if not (self.mu_l < self.mu_r < self.omega_2_ref):
            raise ConfigurationError(
                "gating requires mu_l < mu_r < omega_2_ref")
        g_n = self.chi * math.sqrt(self.n_electrons)
        if not dicke_stable(self.omega_0, self.omega_c, g_n):
            bound = math.sqrt(self.omega_0 * self.omega_c) / 2
            raise Unstable(
                f"collective coupling g_N={g_n:.6g} >= sqrt(w0*wc)/2="
                f"{bound:.6g}; lower polariton not real",
                omega_c=self.omega_c, chi=self.chi,
                n_electrons=self.n_electrons, g_n=g_n)

    @property
    def detuning(self) -> float:
        """(omega_c - omega_0)/omega_0."""
        return (self.omega_c - self.omega_0) / self.omega_0

    @property
    def omega_1(self) -> float:
        """Lower dot level: omega_2_ref - omega_0."""
        return self.omega_2_ref - self.omega_0

    def replace(self, **changes) -> "SystemParams":
        return dataclasses.replace(self, **changes)


_FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams)
                      if f.type in ("float", float))


class ParamStack:
    """The fields of many ``SystemParams`` as arrays, one element each.

    Model code reads a stack where it would read one ``SystemParams``
    (``omega_1`` included), so one formula serves a single operating
    point and a whole sweep.
    """

    def __init__(self, **columns: np.ndarray):
        self.__dict__.update(columns)

    @classmethod
    def of(cls, points: Sequence[SystemParams]) -> "ParamStack":
        return cls(**{f.name: np.array([getattr(p, f.name) for p in points],
                                       dtype=float)
                      for f in dataclasses.fields(SystemParams)})

    def __len__(self) -> int:
        return len(self.omega_c)

    def take(self, index: np.ndarray) -> "ParamStack":
        return ParamStack(**{name: column[index]
                             for name, column in self.__dict__.items()})

    @property
    def omega_1(self) -> np.ndarray:
        return self.omega_2_ref - self.omega_0


@dataclass(frozen=True)
class RenormalizedParams:
    """Squeezed-frame cavity parameters plus the constant energy offset."""

    omega_c_tilde: float
    chi_tilde: float
    lambda_squeeze: float
    e0_shift: float


def collective_coupling(params: SystemParams) -> float:
    """g_N = chi*sqrt(N)."""
    return params.chi * math.sqrt(params.n_electrons)


def renormalize_diamagnetic(params: SystemParams) -> RenormalizedParams:
    """Absorb D(a+a')^2 into a squeezed cavity mode.

    lambda = arctanh(D/(omega_c+2D))/2 with D = N chi^2/omega_0; then
    omega_c -> omega_c e^{2 lambda} and chi -> chi e^{-lambda}. The
    argument of arctanh is < 1/2 for every valid parameter set, so the
    map never leaves its domain. e0_shift is the squeeze-induced
    constant (omega_c/2)(e^{-2 lambda} - 1), irrelevant for rates.
    """
    d = params.n_electrons * params.chi**2 / params.omega_0
    lam = 0.5 * math.atanh(d / (params.omega_c + 2 * d)) if d > 0 else 0.0
    scale = math.exp(2 * lam)
    return RenormalizedParams(
        omega_c_tilde=params.omega_c * scale,
        chi_tilde=params.chi * math.exp(-lam),
        lambda_squeeze=lam,
        e0_shift=params.omega_c / 2 * (1 / scale - 1),
    )


def dicke_params(params: SystemParams, raw: bool = False) -> SystemParams:
    """Parameters in the Dicke form consumed by the model modules.

    With raw=True the inputs are taken as already renormalized and
    returned unchanged; otherwise the squeezed (omega_c, chi) replace
    the bare ones.
    """
    if raw:
        return params
    ren = renormalize_diamagnetic(params)
    return params.replace(omega_c=ren.omega_c_tilde, chi=ren.chi_tilde)


def params_for_coupling(omega_c: float, g_n: float, n_electrons: int,
                        **overrides) -> SystemParams:
    """Build params from a collective coupling g_N = chi*sqrt(N).

    N below 1 is a ConfigurationError, raised before the square root.
    """
    if n_electrons < 1:
        raise ConfigurationError(f"need n_electrons >= 1, got {n_electrons}")
    chi = g_n / math.sqrt(n_electrons)
    overrides.setdefault("n_sites_total", max(2 * n_electrons, n_electrons + 1))
    return SystemParams(omega_c=omega_c, chi=chi, n_electrons=n_electrons,
                        **overrides)
