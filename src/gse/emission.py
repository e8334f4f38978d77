"""Extra-cavity emission bookkeeping.

Turns branch emission rates from any of the three models into what a
photodetector outside the cavity sees: gated totals, emitted fluxes and
a two-Lorentzian spectrum.  ``sweep_columns`` evaluates one model over a
whole ``ParamStack`` and returns every value as an array, one element
per point; the command line driver writes its CSV rows from those
columns.  ``sweep_records`` and ``sweep_record`` wrap the same columns
into ``SweepRecord`` objects, for many operating points or one.

The tier contract: each model tier (``bosonic_pert.pert_tier``,
``bosonic_full.full_tier``, ``fermionic.fermionic_rate_arrays``) is
called as ``tier(points)`` on a ``ParamStack``, or on one
``SystemParams``, and returns the arrays (omega_plus, omega_minus,
rate_plus, rate_minus, weight_plus, weight_minus) in that order, one
element per point; the fermionic tier appends its dark rate.  An empty
stack gives empty arrays.

Rates are expressed in units of the single-electron tunnelling rate,
frequencies in units of the bare transition frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bosonic_full import full_tier
from .bosonic_pert import pert_tier
from .errors import ConfigurationError
from .fermionic import fermionic_rate_arrays
from .params import ParamStack, SystemParams, collective_coupling

__all__ = [
    "MODELS",
    "SweepRecord",
    "emission_spectrum",
    "sweep_columns",
    "sweep_record",
    "sweep_records",
    "total_emission",
]

MODELS = ("pert", "full", "fermionic")


def total_emission(rate_em_pm: tuple[float, float],
                   photon_weight_pm: tuple[float, float],
                   gamma_cav: float,
                   gamma_dark_pm: tuple[float, float] = (0.0, 0.0),
                   ) -> tuple[float, float]:
    """Detected emission rate per branch.

    Each excitation created at rate ``rate_em`` carries photon fraction
    ``photon_weight`` and then competes between cavity loss (detected)
    and non-radiative decay: tot = w * rate * gamma_cav /
    (gamma_dark + gamma_cav).  Elementwise when the inputs are arrays.
    """
    if np.any(np.less_equal(gamma_cav, 0.0)):
        raise ConfigurationError("gamma_cav must be positive")
    out = []
    for rate, weight, dark in zip(rate_em_pm, photon_weight_pm, gamma_dark_pm):
        if np.any(np.less(rate, 0.0) | np.less(weight, 0.0) | np.less(dark, 0.0)):
            raise ConfigurationError("rates and weights must be non-negative")
        out.append(weight * rate * gamma_cav / (dark + gamma_cav))
    return out[0], out[1]


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


# The SweepRecord fields that ``sweep_columns`` computes, in order.
_RECORD_VALUES = ("omega_plus", "omega_minus", "rate_plus", "rate_minus",
                  "weight_plus", "weight_minus", "tot_plus", "tot_minus")


def sweep_columns(points: ParamStack, model: str) -> dict[str, np.ndarray]:
    """Evaluate one model at every point of a stack, as arrays.

    The keys are the value fields of ``SweepRecord`` (``omega_plus`` ...
    ``tot_minus``) and its properties ``flux_plus``, ``flux_minus``,
    ``gse_rate``, ``gse_flux`` and ``tot_rate``, each computed by the
    same IEEE operation as the property.  The tier runs once over all
    points.  A point whose values come out non-finite (inputs beyond
    floating-point range) raises ConfigurationError, without a numpy
    warning; so does a negative rate or weight (``total_emission``).
    """
    # looked up at call time, so a wrapper installed on this module runs
    tiers = {"pert": pert_tier, "full": full_tier,
             "fermionic": fermionic_rate_arrays}
    if model not in tiers:
        raise ConfigurationError(f"unknown model {model!r}")
    # inputs beyond floating-point range overflow; the finiteness check
    # below rejects them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w_p, w_m, rate_p, rate_m, weight_p, weight_m = tiers[model](points)[:6]
        tot_p, tot_m = total_emission(
            (rate_p, rate_m), (weight_p, weight_m), points.gamma_cav,
            (points.gamma_dark_plus, points.gamma_dark_minus))
    values = np.stack((w_p, w_m, rate_p, rate_m, weight_p, weight_m,
                       tot_p, tot_m))
    bad = ~np.isfinite(values).all(axis=0)
    if bad.any():
        raise ConfigurationError(
            f"model {model} gives non-finite values at {int(bad.sum())} of "
            f"{len(points)} operating points (inputs out of numerical range)")
    columns = dict(zip(_RECORD_VALUES, values))
    columns.update(flux_plus=w_p * rate_p, flux_minus=w_m * rate_m,
                   gse_rate=rate_p + rate_m, tot_rate=tot_p + tot_m)
    columns["gse_flux"] = columns["flux_plus"] + columns["flux_minus"]
    return columns


def sweep_records(points: Sequence[SystemParams], model: str, *,
                  detunings: Sequence[float] | None = None,
                  g_over_omega0: Sequence[float] | None = None,
                  ) -> list[SweepRecord]:
    """Evaluate one model at many operating points at once.

    The ``sweep_columns`` of all points, one record per point; record i
    is what ``sweep_record(points[i], model, ...)`` returns, bit for bit.
    ``detunings`` and ``g_over_omega0`` give per-point coordinate
    labels, as the keywords of ``sweep_record`` do.
    """
    columns = sweep_columns(ParamStack.of(points), model)
    if detunings is None:
        detunings = [p.detuning for p in points]
    if g_over_omega0 is None:
        g_over_omega0 = [collective_coupling(p) / p.omega_0 for p in points]
    values = np.stack([columns[name] for name in _RECORD_VALUES], axis=-1)
    return [SweepRecord(model, det, g, p.n_electrons, *row)
            for p, det, g, row in zip(points, detunings, g_over_omega0,
                                      values.tolist())]


def sweep_record(params: SystemParams, model: str, *,
                 detuning: float | None = None,
                 g_over_omega0: float | None = None) -> SweepRecord:
    """Evaluate one model at one operating point.

    ``detuning`` and ``g_over_omega0`` override the coordinate labels
    stored on the record; callers that renormalize ``params`` first use
    them to keep the sweep axes at the requested bare values.
    """
    return sweep_records(
        [params], model,
        detunings=None if detuning is None else [detuning],
        g_over_omega0=None if g_over_omega0 is None else [g_over_omega0])[0]


def emission_spectrum(record: SweepRecord, gamma_cav: float,
                      frequency_grid: np.ndarray) -> np.ndarray:
    """Two-Lorentzian emission spectrum on ``frequency_grid``.

    Each bright branch contributes a Lorentzian of FWHM ``gamma_cav``
    centred at its frequency whose frequency integral equals the
    detected branch rate, so integrating the returned array recovers
    ``record.tot_rate``.  A width and grid whose Lorentzian denominators
    would overflow are a ConfigurationError, decided before computing.
    """
    if gamma_cav <= 0.0:
        raise ConfigurationError("gamma_cav must be positive")
    grid = np.asarray(frequency_grid, dtype=float)
    half = 0.5 * gamma_cav
    far = max(float(np.abs(grid - center).max(initial=0.0))
              for center in (record.omega_plus, record.omega_minus))
    if not math.isfinite(far * far + half * half):
        raise ConfigurationError(
            f"gamma_cav={gamma_cav!r} overflows the Lorentzian denominators "
            f"on a grid reaching {far!r} from a branch frequency")
    spectrum = np.zeros_like(grid)
    for center, strength in ((record.omega_plus, record.tot_plus),
                             (record.omega_minus, record.tot_minus)):
        spectrum += strength * (half / math.pi) / ((grid - center) ** 2 + half ** 2)
    return spectrum
