"""Extra-cavity emission bookkeeping.

Turns branch emission rates from any of the three models into what a
photodetector outside the cavity sees: gated totals, emitted fluxes and
a two-Lorentzian spectrum.  Produces ``SweepRecord`` rows consumed by
the command line driver.

Rates are expressed in units of the single-electron tunnelling rate,
frequencies in units of the bare transition frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bosonic_full import hopfield_modes, photon_weight_full, single_polariton_rate_full
from .bosonic_pert import (
    jc_basis,
    perturbative_betas,
    photon_weight_pert,
    single_polariton_rate_pert,
)
from .errors import ConfigurationError
from .fermionic import fermionic_rates
from .params import SystemParams, collective_coupling

__all__ = [
    "MODELS",
    "SweepRecord",
    "chemical_gate",
    "emission_spectrum",
    "gse_total_rate",
    "sweep_record",
    "total_emission",
]

MODELS = ("pert", "full", "fermionic")


def chemical_gate(delta_ab: float, mu: float, direction: str) -> bool:
    """Zero-temperature lead occupation factor for a tunnelling event.

    ``delta_ab`` is the system energy change E_B - E_A.  An electron
    leaves into the lead (``direction='out'``) when -mu - delta_ab >= 0
    and enters from it (``'in'``) when mu - delta_ab >= 0; the marginal
    case counts as open.
    """
    if direction == "out":
        return -mu - delta_ab >= 0.0
    if direction == "in":
        return mu - delta_ab >= 0.0
    raise ConfigurationError(f"direction must be 'in' or 'out', got {direction!r}")


def total_emission(rate_em_pm: tuple[float, float],
                   photon_weight_pm: tuple[float, float],
                   gamma_cav: float,
                   gamma_dark_pm: tuple[float, float] = (0.0, 0.0),
                   ) -> tuple[float, float]:
    """Detected emission rate per branch.

    Each excitation created at rate ``rate_em`` carries photon fraction
    ``photon_weight`` and then competes between cavity loss (detected)
    and non-radiative decay: tot = w * rate * gamma_cav /
    (gamma_dark + gamma_cav).
    """
    if gamma_cav <= 0.0:
        raise ConfigurationError("gamma_cav must be positive")
    out = []
    for rate, weight, dark in zip(rate_em_pm, photon_weight_pm, gamma_dark_pm):
        if rate < 0.0 or weight < 0.0 or dark < 0.0:
            raise ConfigurationError("rates and weights must be non-negative")
        out.append(weight * rate * gamma_cav / (dark + gamma_cav))
    return out[0], out[1]


def gse_total_rate(*branch_rates: float) -> float:
    """Sum of bright-branch emission rates (dark channels excluded)."""
    total = 0.0
    for rate in branch_rates:
        if rate < 0.0:
            raise ConfigurationError("branch rates must be non-negative")
        total += rate
    return total


@dataclass(frozen=True)
class SweepRecord:
    """One operating point of one model, ready for CSV serialization."""

    model: str
    detuning: float
    g_over_omega0: float
    n_electrons: int
    omega_plus: float
    omega_minus: float
    rate_plus: float
    rate_minus: float
    weight_plus: float
    weight_minus: float
    tot_plus: float
    tot_minus: float

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigurationError(f"unknown model {self.model!r}")
        for name in ("rate_plus", "rate_minus", "weight_plus", "weight_minus",
                     "tot_plus", "tot_minus"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")

    @property
    def flux_plus(self) -> float:
        return self.omega_plus * self.rate_plus

    @property
    def flux_minus(self) -> float:
        return self.omega_minus * self.rate_minus

    @property
    def gse_rate(self) -> float:
        return self.rate_plus + self.rate_minus

    @property
    def gse_flux(self) -> float:
        return self.flux_plus + self.flux_minus

    @property
    def tot_rate(self) -> float:
        return self.tot_plus + self.tot_minus

    @property
    def tot_flux(self) -> float:
        return self.omega_plus * self.tot_plus + self.omega_minus * self.tot_minus


def _pert_point(params: SystemParams) -> tuple[float, ...]:
    g = collective_coupling(params)
    basis = jc_basis(params.omega_0, params.omega_c, g, allow_zero=True)
    if g == 0.0:
        rates = (0.0, 0.0)
        wplus = 1.0 if params.omega_c >= params.omega_0 else 0.0
        weights = (wplus, 1.0 - wplus)
    else:
        betas = perturbative_betas(basis, g)
        rates = single_polariton_rate_pert(basis, betas)
        weights = (photon_weight_pert(basis, betas, "+"),
                   photon_weight_pert(basis, betas, "-"))
    return basis.omega_plus, basis.omega_minus, rates[0], rates[1], weights[0], weights[1]


def _full_point(params: SystemParams) -> tuple[float, ...]:
    modes = hopfield_modes(params.omega_0, params.omega_c, collective_coupling(params))
    rates = single_polariton_rate_full(params)
    weights = (photon_weight_full(modes, "+"), photon_weight_full(modes, "-"))
    return (modes.lambda_plus, modes.lambda_minus, rates[0], rates[1],
            weights[0], weights[1])


def _fermionic_point(params: SystemParams) -> tuple[float, ...]:
    res = fermionic_rates(params)
    return (res.omega_plus, res.omega_minus, res.rate_plus, res.rate_minus,
            res.weight_plus, res.weight_minus)


_POINT_BUILDERS = {
    "pert": _pert_point,
    "full": _full_point,
    "fermionic": _fermionic_point,
}


def sweep_record(params: SystemParams, model: str, *,
                 detuning: float | None = None,
                 g_over_omega0: float | None = None) -> SweepRecord:
    """Evaluate one model at one operating point.

    ``detuning`` and ``g_over_omega0`` override the coordinate labels
    stored on the record; callers that renormalize ``params`` first use
    them to keep the sweep axes at the requested bare values.
    """
    try:
        builder = _POINT_BUILDERS[model]
    except KeyError:
        raise ConfigurationError(f"unknown model {model!r}") from None
    w_p, w_m, rate_p, rate_m, weight_p, weight_m = builder(params)
    tot_p, tot_m = total_emission(
        (rate_p, rate_m), (weight_p, weight_m), params.gamma_cav,
        (params.gamma_dark_plus, params.gamma_dark_minus))
    return SweepRecord(
        model=model,
        detuning=params.detuning if detuning is None else detuning,
        g_over_omega0=(collective_coupling(params) / params.omega_0
                       if g_over_omega0 is None else g_over_omega0),
        n_electrons=params.n_electrons,
        omega_plus=w_p,
        omega_minus=w_m,
        rate_plus=rate_p,
        rate_minus=rate_m,
        weight_plus=weight_p,
        weight_minus=weight_m,
        tot_plus=tot_p,
        tot_minus=tot_m,
    )


def emission_spectrum(record: SweepRecord, gamma_cav: float,
                      frequency_grid: np.ndarray) -> np.ndarray:
    """Two-Lorentzian emission spectrum on ``frequency_grid``.

    Each bright branch contributes a Lorentzian of FWHM ``gamma_cav``
    centred at its frequency whose frequency integral equals the
    detected branch rate, so integrating the returned array recovers
    ``record.tot_rate``.
    """
    if gamma_cav <= 0.0:
        raise ConfigurationError("gamma_cav must be positive")
    grid = np.asarray(frequency_grid, dtype=float)
    half = 0.5 * gamma_cav
    spectrum = np.zeros_like(grid)
    for center, strength in ((record.omega_plus, record.tot_plus),
                             (record.omega_minus, record.tot_minus)):
        spectrum += strength * (half / math.pi) / ((grid - center) ** 2 + half ** 2)
    return spectrum
