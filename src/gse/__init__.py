"""Ground-state electroluminescence of many electrons in a cavity.

Three model tiers compute the rate at which electron tunnelling through
a strongly coupled cavity system converts ground-state virtual photons
into real emitted light: a perturbative two-mode treatment, the exact
quadratic-boson diagonalization, and the fermionic collective-spin
pipeline, plus a brute-force exact-diagonalization oracle for small
systems.

The package root exports what the README documents; everything else is
reached through its module (``gse.fermionic``, ``gse.oracle``, ...).

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` when the variable
is unset, so LAPACK runs in one thread and every output has the same
bytes on any machine with the same numpy build; an explicit setting wins.
"""

import os

# set before numpy loads: eigh's last bits depend on OpenBLAS's threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bosonic_full import (
    double_polariton_rate_full,
    hopfield_modes,
    single_polariton_rate_full,
)
from .bosonic_pert import (
    jc_basis,
    perturbative_betas,
    single_polariton_rate_pert,
)
from .emission import (
    MODELS,
    SweepRecord,
    emission_spectrum,
    sweep_record,
    sweep_records,
)
from .errors import (
    ConfigurationError,
    CutoffNotConverged,
    DegenerateDenominator,
    GseError,
    InvalidQuantumNumbers,
    Unstable,
    UnsupportedDoubleOccupancy,
    ZeroCoupling,
)
from .fermionic import (
    dressed_ground_state,
    gse_rate_closed_form,
    transition_rate_fermionic,
)
from .oracle import compare_with_oracle
from .params import SystemParams, params_for_coupling

__version__ = "0.1.0"

__all__ = [
    "MODELS",
    "ConfigurationError",
    "CutoffNotConverged",
    "DegenerateDenominator",
    "GseError",
    "InvalidQuantumNumbers",
    "SweepRecord",
    "SystemParams",
    "Unstable",
    "UnsupportedDoubleOccupancy",
    "ZeroCoupling",
    "compare_with_oracle",
    "double_polariton_rate_full",
    "dressed_ground_state",
    "emission_spectrum",
    "gse_rate_closed_form",
    "hopfield_modes",
    "jc_basis",
    "params_for_coupling",
    "perturbative_betas",
    "single_polariton_rate_full",
    "single_polariton_rate_pert",
    "sweep_record",
    "sweep_records",
    "transition_rate_fermionic",
]
