"""Ground-state electroluminescence of many electrons in a cavity.

Three model tiers compute the rate at which electron tunnelling through
a strongly coupled cavity system converts ground-state virtual photons
into real emitted light: a perturbative two-mode treatment, the exact
quadratic-boson diagonalization, and the fermionic collective-spin
pipeline, plus a brute-force exact-diagonalization oracle for small
systems.
"""

from .bosonic_full import (
    HopfieldModes,
    double_polariton_rate_full,
    dp_matrix,
    hopfield_modes,
    lambda_pm,
    photon_weight_full,
    pseudo_norm,
    single_polariton_rate_full,
)
from .bosonic_pert import (
    JcPolaritonBasis,
    PerturbativeCoefficients,
    double_polariton_rate_pert,
    jc_basis,
    perturbative_betas,
    photon_weight_pert,
    single_polariton_rate_pert,
)
from .emission import (
    MODELS,
    SweepRecord,
    chemical_gate,
    emission_spectrum,
    gse_total_rate,
    sweep_record,
    sweep_records,
    total_emission,
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
    DressedState,
    FermionicRates,
    SubspaceKey,
    clebsch_coeffs,
    degeneracy,
    diagonalize_subspace,
    dress_state_first_order,
    dressed_ground_state,
    dressed_sector_states,
    fermionic_rates,
    gse_rate_closed_form,
    gse_rate_pipeline,
    tc_kernel,
    theta_plus,
    transition_rate_fermionic,
    transition_strength,
)
from .oracle import (
    OracleReport,
    TransitionTable,
    TruncatedHilbertSpace,
    compare_with_oracle,
    exact_ground_state,
    exact_transition_elements,
)
from .params import (
    RenormalizedParams,
    SystemParams,
    collective_coupling,
    dicke_params,
    params_for_coupling,
    renormalize_diamagnetic,
)

__version__ = "0.1.0"

__all__ = [
    "MODELS",
    "ConfigurationError",
    "CutoffNotConverged",
    "DegenerateDenominator",
    "DressedState",
    "FermionicRates",
    "GseError",
    "HopfieldModes",
    "InvalidQuantumNumbers",
    "JcPolaritonBasis",
    "OracleReport",
    "PerturbativeCoefficients",
    "RenormalizedParams",
    "SubspaceKey",
    "SweepRecord",
    "SystemParams",
    "TransitionTable",
    "TruncatedHilbertSpace",
    "Unstable",
    "UnsupportedDoubleOccupancy",
    "ZeroCoupling",
    "chemical_gate",
    "clebsch_coeffs",
    "collective_coupling",
    "compare_with_oracle",
    "degeneracy",
    "diagonalize_subspace",
    "dicke_params",
    "double_polariton_rate_full",
    "double_polariton_rate_pert",
    "dp_matrix",
    "dress_state_first_order",
    "dressed_ground_state",
    "dressed_sector_states",
    "emission_spectrum",
    "exact_ground_state",
    "exact_transition_elements",
    "fermionic_rates",
    "gse_rate_closed_form",
    "gse_rate_pipeline",
    "gse_total_rate",
    "hopfield_modes",
    "jc_basis",
    "lambda_pm",
    "params_for_coupling",
    "perturbative_betas",
    "photon_weight_full",
    "photon_weight_pert",
    "pseudo_norm",
    "renormalize_diamagnetic",
    "single_polariton_rate_full",
    "single_polariton_rate_pert",
    "sweep_record",
    "sweep_records",
    "tc_kernel",
    "theta_plus",
    "total_emission",
    "transition_rate_fermionic",
    "transition_strength",
]
