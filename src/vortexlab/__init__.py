"""Spectral toolkit for vortex dynamics in a periodic box.

Exact Fourier calculus on scalar, vector and tensor fields; velocity
gradient invariants and strain eigenvalues; pointwise and volume-mean
identity checks; a dealiased incompressible solver with per-equation
evolution residuals; decay diagnostics with entropy and L^q inequalities;
and explicit drift-kernel bounds with a short-time vorticity propagator.
"""

from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    TensorField3,
)
from .kinematics import (
    InvariantFields,
    StrainEigenvalues,
    Workspace,
    invariants,
    strain_eigenvalues,
    variance_P,
    mean_helicity,
)
from .identities import (
    ResidualReport,
    residual_tr2,
    residual_tr3,
    residual_grad_sw,
    residual_pressure_hessian,
    gamma2_residual,
    mean_identities,
    switched_invariant_residuals,
)
from .solver import (
    CFLViolation,
    NumericalAbort,
    FlowState,
    SolverConfig,
    DimensionlessScaling,
    EVOLUTION_CHECKS,
    leray_project,
    pressure_from_velocity,
    ns_rhs,
    step,
    initial_condition,
    nondimensionalize,
    redimensionalize,
    evolution_residual,
    evolution_workspaces,
)
from .diagnostics import (
    DiagnosticsRecord,
    RunSeries,
    Histogram2D,
    diagnose,
    entropy_monotonicity_check,
    lq_inequality_check,
    qr_invariants,
    read_series_csv,
    write_series_csv,
)
from .heatkernel import (
    KernelParams,
    TimescaleReport,
    phi,
    psi,
    p_beta,
    gamma_pm,
    kernel_bounds_check,
    monte_carlo_kernel_check,
    f_pm,
    f_pm_psi_term,
    short_time_vorticity_step,
    exact_linear_vorticity_step,
    vorticity_timescale,
    dimensionless_timescale,
)
from .storage import (
    save_field,
    load_field,
    save_state,
    load_state,
    write_manifest,
    read_manifest,
)

__version__ = "0.1.0"

__all__ = [
    "Grid", "ScalarField", "VectorField", "TensorField3",
    "InvariantFields", "StrainEigenvalues", "invariants",
    "strain_eigenvalues", "variance_P", "mean_helicity", "Workspace",
    "ResidualReport", "residual_tr2", "residual_tr3", "residual_grad_sw",
    "residual_pressure_hessian", "gamma2_residual", "mean_identities",
    "switched_invariant_residuals",
    "CFLViolation", "NumericalAbort", "FlowState", "SolverConfig",
    "DimensionlessScaling",
    "EVOLUTION_CHECKS", "leray_project", "pressure_from_velocity",
    "ns_rhs", "step", "initial_condition", "nondimensionalize",
    "redimensionalize", "evolution_residual", "evolution_workspaces",
    "DiagnosticsRecord", "RunSeries", "Histogram2D", "diagnose",
    "entropy_monotonicity_check", "lq_inequality_check", "qr_invariants",
    "read_series_csv", "write_series_csv",
    "KernelParams", "TimescaleReport", "phi", "psi", "p_beta", "gamma_pm",
    "kernel_bounds_check", "monte_carlo_kernel_check", "f_pm",
    "f_pm_psi_term", "short_time_vorticity_step",
    "exact_linear_vorticity_step", "vorticity_timescale",
    "dimensionless_timescale",
    "save_field", "load_field", "save_state", "load_state",
    "write_manifest", "read_manifest",
    "__version__",
]
