"""Exchange-driven growth at desk scale.

Clusters of integer size exchange single monomers at kernel-given rates.
This package integrates the truncated mean-field system, analyzes its
product-form equilibria and condensation phase transition under the
curl-free (detailed-balance) condition, and verifies the free-energy /
dissipation structure along trajectories.
"""

from .kernels import (
    AssumptionReport,
    Kernel,
    KernelDomainError,
    ZeroRateError,
    additive_kernel,
    audit_assumptions,
    bda_residual,
    condensing_kernel,
    constant_kernel,
    kernel_from_spec,
    kernel_spec,
    separable_kernel,
)
from .equilibrium import (
    ChemicalPotential,
    CriticalDensityInfo,
    DivergentSeriesError,
    EquilibriumProfile,
    InconclusiveDensityError,
    SupercriticalDensityError,
    chemical_potential,
    critical_density,
    critical_density_info,
    density_at_fugacity,
    equilibrium_free_energy,
    equilibrium_profile,
    estimate_critical_fugacity,
    fugacity_for_density,
    partition_sum,
)
from .dynamics import (
    ConcentrationProfile,
    IntegratorConfig,
    IntegratorError,
    IntegratorStats,
    RatesView,
    TrajectoryRecord,
    birth_death_rates,
    geometric_state,
    integrate,
    load_checkpoint,
    moment_identity_residual,
    monodisperse_state,
    net_fluxes,
    positivity_bound_margin,
    rhs,
    save_checkpoint,
    state_from_profile,
    state_from_values,
    step,
    strong_norm,
    vacuum_state,
)
from .thermo import (
    BoundaryStateError,
    DissipationResult,
    OnsagerOperator,
    ThermoSeries,
    assemble_onsager,
    dissipation,
    entropy,
    free_energy,
    gradient_flow_residual,
    relative_entropy,
    thermo_series,
)
from .diagnostics import (
    AnalysisConfig,
    ConvergenceReport,
    NotIntegrableError,
    RhoCUnavailableError,
    SuperlinearWeights,
    classify_longtime,
    strong_norm_distance,
    superlinear_weights,
    tail_mass,
    weak_distance,
)

__version__ = "0.1.0"
