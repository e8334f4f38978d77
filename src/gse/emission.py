"""Extra-cavity emission bookkeeping.

Turns branch emission rates from any of the three models into what a
photodetector outside the cavity sees: gated totals, emitted fluxes and
a two-Lorentzian spectrum.  ``sweep_columns`` evaluates one model over a
whole ``ParamStack`` and returns every value as an array, one element
per point; ``sweep_chunks`` does the same one slice of ``params.chunks``
at a time, and the command line driver writes its CSV rows from those
columns.  ``sweep_records`` and ``sweep_record`` wrap the same columns
into ``SweepRecord`` objects, for many operating points or one, each
labelled by its own point's detuning and g_N/omega_0.

The tier contract: each model tier (``bosonic_pert.pert_tier``,
``bosonic_full.full_tier``, ``fermionic.fermionic_rate_arrays``) is
called as ``tier(points)`` on a ``ParamStack``, or on one
``SystemParams``, and returns the arrays (omega_plus, omega_minus,
rate_plus, rate_minus, weight_plus, weight_minus) in that order, one
element per point (one ``SystemParams`` gives scalars, bit for bit those
of a one-point stack).  An empty stack gives empty arrays.

Rates are expressed in units of the single-electron tunnelling rate,
frequencies in units of the bare transition frequency.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, GseError
from .params import ParamStack, SystemParams, chunks, collective_coupling

__all__ = [
    "MODELS",
    "SweepRecord",
    "emission_spectrum",
    "sweep_chunks",
    "sweep_columns",
    "sweep_record",
    "sweep_records",
]

MODELS = ("pert", "full", "fermionic")

# Each model's tier, as (module, name): a global here once the model is
# first evaluated, which loads the module.
_TIERS = {"pert": ("bosonic_pert", "pert_tier"),
          "full": ("bosonic_full", "full_tier"),
          "fermionic": ("fermionic", "fermionic_rate_arrays")}


def __getattr__(name: str):
    """Import a tier's module on first access of the tier (PEP 562)."""
    for module, tier in _TIERS.values():
        if tier == name:
            loaded = importlib.import_module(f"{__package__}.{module}")
            globals()[name] = getattr(loaded, name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and non-negative")

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


def _decay_rate(gamma_cav, gamma_dark):
    """A branch's total decay rate, through the cavity and its dark
    channel: the denominator of ``tot`` and the FWHM of its line."""
    return gamma_dark + gamma_cav


# The SweepRecord fields that ``sweep_columns`` computes, in order.
_RECORD_VALUES = ("omega_plus", "omega_minus", "rate_plus", "rate_minus",
                  "weight_plus", "weight_minus", "tot_plus", "tot_minus")


def sweep_columns(points: ParamStack, model: str) -> dict[str, np.ndarray]:
    """Evaluate one model at every point of a stack, as arrays.

    The keys are the value fields of ``SweepRecord`` (``omega_plus`` ...
    ``tot_minus``) and its properties ``flux_plus``, ``flux_minus``,
    ``gse_rate``, ``gse_flux`` and ``tot_rate``, each computed by the
    same IEEE operation as the property.  The tier runs once over all
    points.  Each excitation a branch creates at its rate carries the
    branch's photon weight and then leaves through the cavity (detected)
    or decays into that branch's dark channel: ``tot = weight * rate *
    gamma_cav / decay rate`` (``_decay_rate``).  A point whose values come
    out non-finite (inputs beyond floating-point range) raises
    ConfigurationError, without a numpy warning.
    """
    if model not in _TIERS:
        raise ConfigurationError(f"unknown model {model!r}")
    # looked up at call time, so a wrapper installed on this module runs
    tier = getattr(sys.modules[__name__], _TIERS[model][1])
    # inputs beyond floating-point range overflow; the finiteness check
    # below rejects them
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w_p, w_m, rate_p, rate_m, weight_p, weight_m = tier(points)
        tot_p = weight_p * rate_p * points.gamma_cav / _decay_rate(
            points.gamma_cav, points.gamma_dark_plus)
        tot_m = weight_m * rate_m * points.gamma_cav / _decay_rate(
            points.gamma_cav, points.gamma_dark_minus)
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


def sweep_chunks(points: ParamStack, model: str):
    """``sweep_columns`` of one model over a stack, one slice of
    ``params.chunks`` at a time: yields (slice, columns) per slice.

    The values are those of one ``sweep_columns`` call over the whole
    stack, bit for bit, since every tier is pointwise.  So is any error:
    once a slice fails, the whole stack is evaluated again to raise it,
    counted and worded over all points (at the memory of one whole call,
    on that path only).
    """
    for part in chunks(len(points)):
        try:
            columns = sweep_columns(points.take(part), model)
        except GseError:
            sweep_columns(points, model)
            raise
        yield part, columns


def sweep_records(points: Sequence[SystemParams],
                  model: str) -> list[SweepRecord]:
    """Evaluate one model at many operating points at once.

    The ``sweep_columns`` of all points, one record per point, labelled
    by that point's ``detuning`` and g_N/omega_0.
    """
    columns = sweep_columns(ParamStack.of(points), model)
    values = np.stack([columns[name] for name in _RECORD_VALUES], axis=-1)
    return [SweepRecord(model, p.detuning, collective_coupling(p) / p.omega_0,
                        p.n_electrons, *row)
            for p, row in zip(points, values.tolist())]


def sweep_record(params: SystemParams, model: str) -> SweepRecord:
    """``sweep_records([params], model)[0]``: one model at one point."""
    return sweep_records([params], model)[0]


def emission_spectrum(record: SweepRecord, gamma_cav: float,
                      frequency_grid: np.ndarray, *,
                      gamma_dark_plus: float = 0.0,
                      gamma_dark_minus: float = 0.0) -> np.ndarray:
    """Two-Lorentzian emission spectrum on ``frequency_grid``.

    Each bright branch contributes a Lorentzian centred at its frequency
    whose FWHM is the branch's total decay rate, ``gamma_cav`` plus its
    dark rate (``_decay_rate``), and whose frequency integral equals the
    detected branch rate, so integrating the returned array recovers
    ``record.tot_rate``.  A line whose Lorentzian denominators would
    overflow on the grid is a ConfigurationError, decided before it is
    drawn.
    """
    if gamma_cav <= 0.0:
        raise ConfigurationError("gamma_cav must be positive")
    if not (gamma_dark_plus >= 0.0 and gamma_dark_minus >= 0.0):
        raise ConfigurationError("dark conversion rates must be >= 0")
    grid = np.asarray(frequency_grid, dtype=float)
    lines = ((record.omega_plus, record.tot_plus, gamma_dark_plus),
             (record.omega_minus, record.tot_minus, gamma_dark_minus))
    spectrum = np.zeros_like(grid)
    for center, strength, dark in lines:
        width = _decay_rate(gamma_cav, dark)
        half, far = 0.5 * width, float(np.abs(grid - center).max(initial=0.0))
        if not math.isfinite(far * far + half * half):
            raise ConfigurationError(
                f"line width {width!r} overflows the Lorentzian denominators "
                f"on a grid reaching {far!r} from its branch frequency")
        spectrum += strength * (half / math.pi) / ((grid - center) ** 2 + half ** 2)
    return spectrum
