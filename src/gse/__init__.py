"""Ground-state electroluminescence of many electrons in a cavity.

Three model tiers compute the rate at which electron tunnelling through
a strongly coupled cavity system converts ground-state virtual photons
into real emitted light: a perturbative two-mode treatment, the exact
quadratic-boson diagonalization, and the fermionic collective-spin
pipeline, plus a brute-force exact-diagonalization oracle for small
systems.

The package root exports what the README documents; everything else is
reached through its module (``gse.fermionic``, ``gse.oracle``, ...).  A
call loads only what it runs: ``import gse`` loads no submodule, and each
module loads on the first use of it or of a name exported here.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` when the variable
is unset, so LAPACK runs in one thread and every output has the same
bytes for one numpy build and CPU type; an explicit setting wins.
"""

import importlib
import os

# set before numpy loads: eigh's last bits depend on OpenBLAS's threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# Each submodule, and the names the package root exports from it.
_EXPORTS = {
    "bosonic_full": ("double_polariton_rate_full", "hopfield_modes",
                     "single_polariton_rate_full"),
    "bosonic_pert": ("jc_basis", "perturbative_betas",
                     "single_polariton_rate_pert"),
    "cli": (),
    "emission": ("MODELS", "SweepRecord", "emission_spectrum",
                 "sweep_record", "sweep_records"),
    "errors": ("ConfigurationError", "CutoffNotConverged",
               "DegenerateDenominator", "GseError", "InvalidQuantumNumbers",
               "Unstable", "UnsupportedDoubleOccupancy", "ZeroCoupling"),
    "fermionic": ("dressed_ground_state", "gse_rate_closed_form",
                  "transition_rate_fermionic"),
    "oracle": ("compare_with_oracle",),
    "params": ("SystemParams", "params_for_coupling"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a submodule, or an exported name's module, on first access
    (PEP 562); the name is then a plain module global."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
        globals()[name] = getattr(module, name)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
