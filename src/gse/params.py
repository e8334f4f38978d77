"""Physical parameters and the diamagnetic (Bogoliubov) renormalization.

Conventions
-----------
All frequencies are dimensionless, in units of the matter transition
frequency omega_0 (so omega_0 = 1 unless the caller insists otherwise).
Rates produced by the model modules are reported in units of gamma_el.

The diamagnetic A^2 term D(a+a')^2 with D = N chi^2/omega_0 is absorbed
by squeezing the cavity mode; downstream modules consume the squeezed
(omega_c, chi) pair with the tildes dropped. ``_squeeze`` is the one
squeeze, and ``dicke_params`` its scalar entry point. A `raw` switch in
the CLI lets users supply already-renormalized values.

One operating point is a ``SystemParams``; many are a ``ParamStack``, the
same fields as arrays. ``stack_for_coupling`` builds a whole stack,
one slice of ``chunks`` at a time, as ``params_for_coupling`` and
``dicke_params`` would point by point. Its errors are theirs: it masks
the points that break a rule of ``_rules`` or the bound ``dicke_stable``
and replays only those through the scalar calls, which alone decide and
word every error.  ``chunks`` is the one rule by which the package splits
operating points; the emission and command line modules iterate it too.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, Unstable

__all__ = [
    "CHUNK_POINTS",
    "MAX_CUTOFF",
    "MAX_N",
    "PHOTON_CUTOFF_STEP",
    "SystemParams",
    "ParamStack",
    "chunks",
    "collective_coupling",
    "dicke_params",
    "params_for_coupling",
    "stack_for_coupling",
]


# The largest electron number float64, the dtype of ``ParamStack``, holds
# exactly.
MAX_N = 2**53

# The oracle's photon cutoff: the largest it starts or escalates to, and
# the step it escalates by.  They live here, beside MAX_N, so the command
# line states them in its help without loading ``gse.oracle``.
MAX_CUTOFF = 40
PHOTON_CUTOFF_STEP = 4

# Operating points built, evaluated and formatted at a time (``chunks``).
# The tiers are pointwise, so no value or error depends on it; it bounds
# the temporaries of a large grid to those of one chunk.
CHUNK_POINTS = 1024


def chunks(count: int):
    """The consecutive slices of ``range(count)``, ``CHUNK_POINTS``
    points each but the last."""
    for start in range(0, count, CHUNK_POINTS):
        yield slice(start, start + CHUNK_POINTS)


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
        for holds, message in _rules(self):
            if not holds:
                raise ConfigurationError(message.format_map(vars(self)))
        g_n = collective_coupling(self)
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


_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams))
_FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(SystemParams)
                      if f.type in ("float", float))


# Each float field and the message of its finiteness rule.
_FINITE = tuple((name, f"{name} must be finite, got {{{name}!r}}")
                for name in _FLOAT_FIELDS)


_TOO_MANY_ELECTRONS = "n_electrons must be at most 2**53, got {n_electrons}"


def _rules(p) -> tuple:
    """One (holds, message) pair per rule, in checking order: ``holds`` a
    bool for a SystemParams, a mask over the points for a ParamStack;
    ``message`` the ConfigurationError text, formatted with the
    offending point's fields.  The Dicke bound, checked after all of
    them, raises Unstable instead (``SystemParams.__post_init__``).
    ``x - x == 0.0`` holds exactly for finite x."""
    fields = vars(p)
    return (
        *[(fields[name] - fields[name] == 0.0, message)
          for name, message in _FINITE],
        ((p.omega_0 > 0) & (p.omega_c > 0),
         "omega_0 and omega_c must be positive"),
        (p.chi >= 0, "chi must be non-negative"),
        ((1 <= p.n_electrons) & (p.n_electrons <= p.n_sites_total),
         "need 1 <= n_electrons <= n_sites_total, got "
         "{n_electrons}/{n_sites_total}"),
        (p.n_electrons <= MAX_N, _TOO_MANY_ELECTRONS),
        (p.gamma_el > 0, "gamma_el must be positive"),
        (p.gamma_cav >= 10 * p.gamma_el, "gamma_cav must dominate electron "
         "tunneling (gamma_cav >= 10*gamma_el)"),
        ((p.gamma_dark_plus >= 0) & (p.gamma_dark_minus >= 0),
         "dark conversion rates must be >= 0"),
        ((p.mu_l < p.mu_r) & (p.mu_r < p.omega_2_ref),
         "gating requires mu_l < mu_r < omega_2_ref"),
        (_whole(p.n_electrons) & _whole(p.n_sites_total),
         "n_electrons and n_sites_total must be whole numbers, got "
         "{n_electrons}/{n_sites_total}"),
        (p.n_sites_total <= sys.float_info.max,
         "n_sites_total must be within float range, got {n_sites_total}"),
    )


def _whole(x):
    """Whether x is a finite whole number, elementwise.  Quiet for NaN,
    infinities and ints beyond float range, which the range rules reject."""
    return (np.floor(x) == x) & (abs(x) < math.inf)


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

    def params(self) -> list[SystemParams]:
        """One SystemParams per point, its fields Python numbers and the
        electron and site counts ints."""
        columns = {name: getattr(self, name).tolist() for name in _FIELDS}
        for name in ("n_electrons", "n_sites_total"):
            columns[name] = [int(value) for value in columns[name]]
        return [SystemParams(**dict(zip(columns, row)))
                for row in zip(*columns.values())]

    omega_1 = SystemParams.omega_1


def collective_coupling(params: SystemParams) -> float:
    """g_N = chi*sqrt(N)."""
    return params.chi * math.sqrt(params.n_electrons)


def _squeeze(n_electrons, chi: float, omega_0: float,
             omega_c: float) -> tuple[float, float]:
    """The factors (e^{2 lambda}, e^{-lambda}) of omega_c and chi for one
    point, lambda = arctanh(D/(omega_c+2D))/2 with D = N chi^2/omega_0."""
    d = n_electrons * chi**2 / omega_0
    lam = 0.5 * math.atanh(d / (omega_c + 2 * d)) if d > 0 else 0.0
    return math.exp(2 * lam), math.exp(-lam)


def dicke_params(params: SystemParams, raw: bool = False) -> SystemParams:
    """Parameters in the Dicke form consumed by the model modules.

    With raw=True the inputs are taken as already renormalized and
    returned unchanged. Otherwise D(a+a')^2 is absorbed into a squeezed
    cavity mode, omega_c -> omega_c e^{2 lambda} and chi -> chi
    e^{-lambda} (``_squeeze``). The argument of arctanh is < 1/2 for
    every valid parameter set, so the map never leaves its domain.
    """
    if raw:
        return params
    scale_c, scale_chi = _squeeze(params.n_electrons, params.chi,
                                  params.omega_0, params.omega_c)
    return params.replace(omega_c=params.omega_c * scale_c,
                          chi=params.chi * scale_chi)


def _sites(n_electrons):
    """The default site count max(2N, N + 1), which is 2N for every
    N >= 1."""
    return 2 * n_electrons


def params_for_coupling(omega_c: float, g_n: float, n_electrons: int,
                        **overrides) -> SystemParams:
    """Build params from a collective coupling g_N = chi*sqrt(N).

    N below 1 or above 2**53 is a ConfigurationError, raised before the
    square root.
    """
    if n_electrons < 1:
        raise ConfigurationError(f"need n_electrons >= 1, got {n_electrons}")
    if n_electrons > MAX_N:
        raise ConfigurationError(
            _TOO_MANY_ELECTRONS.format(n_electrons=n_electrons))
    chi = g_n / math.sqrt(n_electrons)
    overrides.setdefault("n_sites_total", _sites(n_electrons))
    return SystemParams(omega_c=omega_c, chi=chi, n_electrons=n_electrons,
                        **overrides)


def _valid(p: ParamStack) -> np.ndarray:
    """Which points keep every rule of ``_rules`` and the Dicke bound."""
    g_n = p.chi * np.sqrt(p.n_electrons)
    return np.logical_and.reduce([holds for holds, _ in _rules(p)] + [
        dicke_stable(p.omega_0, p.omega_c, g_n)])


def _stack_chunk(detuning, g_n, n, raw: bool,
                 overrides: dict) -> tuple[ParamStack, np.ndarray]:
    """The stack of some points before its errors, and the mask of the
    points that keep every rule and the Dicke bound."""
    columns = {}
    for field in dataclasses.fields(SystemParams):
        value = overrides.get(field.name, field.default)
        if value is not dataclasses.MISSING:
            columns[field.name] = np.full(len(n), value)
    # an invalid point may divide by zero or overflow; the rules reject it
    with np.errstate(all="ignore"):
        columns.update(omega_c=1.0 + detuning, chi=g_n / np.sqrt(n),
                       n_electrons=n)
        columns.setdefault("n_sites_total", _sites(n))
        stack = ParamStack(**columns)
        valid = _valid(stack)
        if not raw:
            scales = [_squeeze(*point) for point in zip(
                n[valid].tolist(), stack.chi[valid].tolist(),
                stack.omega_0[valid].tolist(), stack.omega_c[valid].tolist())]
            omega_c, chi = stack.omega_c.copy(), stack.chi.copy()
            omega_c[valid] *= [scale_c for scale_c, _ in scales]
            chi[valid] *= [scale_chi for _, scale_chi in scales]
            stack = ParamStack(**dict(columns, omega_c=omega_c, chi=chi))
            valid &= _valid(stack)
    return stack, valid


def stack_for_coupling(detuning, g_n, n_electrons, *, raw: bool = False,
                       **overrides) -> ParamStack:
    """``dicke_params(params_for_coupling(1 + detuning[i], g_n[i],
    n_electrons[i], **overrides), raw)`` for every point i, as one stack.

    ``detuning`` and ``g_n`` hold floats and ``n_electrons`` ints (or
    floats, which then all read as floats), one each per point; omega_c
    = 1 + detuning in units of omega_0.  The values equal those of the
    point-by-point calls bit for bit: the squeeze's libm calls run per
    point, everything else is IEEE arithmetic over arrays.  So do the errors, because they come from
    those calls: the points that break a rule or the Dicke bound, bare
    or renormalized, are replayed through them in order.  The first
    ConfigurationError propagates; otherwise one Unstable lists every
    unstable point: 'K of M operating points unstable:', then a line per
    point with its detuning, N, message and parameters.

    The points are built and checked one slice of ``chunks`` at a time
    into the one stack of float64 columns, which bounds the temporaries;
    the result and the errors do not depend on the chunk size.
    """
    # omega_c, chi and n_electrons come from the point
    misplaced = set(overrides) - set(_FIELDS[3:])
    if misplaced:
        raise TypeError(f"not a SystemParams override: {sorted(misplaced)}")
    detuning = np.asarray(detuning, dtype=float)
    g_n = np.asarray(g_n, dtype=float)
    # float counts stay floats, so a fraction breaks the whole-number rule
    n = np.asarray(n_electrons)
    n = n if n.dtype.kind == "f" else n.astype(np.int64)
    columns = {name: np.empty(len(n)) for name in _FIELDS}
    rejected, lines = False, []
    for part in chunks(len(n)):
        stack, valid = _stack_chunk(detuning[part], g_n[part], n[part], raw,
                                    overrides)
        for name, column in columns.items():
            column[part] = getattr(stack, name)
        rejected |= not valid.all()
        # every point the mask rejects fails its scalar calls too
        for i in (part.start + np.flatnonzero(~valid)).tolist():
            det, n_i = detuning[i].item(), n[i].item()
            try:
                dicke_params(params_for_coupling(1.0 + det, g_n[i].item(), n_i,
                                                 **overrides), raw)
            except Unstable as exc:
                details = ", ".join(f"{key}={value}" for key, value
                                    in sorted(exc.params.items()))
                lines.append(f"  detuning={det} N={n_i}: {exc} ({details})")
    if rejected:
        raise Unstable(f"{len(lines)} of {len(n)} operating points "
                       f"unstable:\n" + "\n".join(lines))
    return ParamStack(**columns)
