"""Periodic-box incompressible Navier-Stokes with regularity-criterion monitors."""

from .spectral import (
    Grid,
    NonHermitianInput,
    RealScalarField,
    SpectralScalarField,
    SpectralVelocityField,
    VelocityField,
    curl,
    dealias,
    divergence,
    fft_forward,
    fft_inverse,
    gradient,
    leray_project,
)
from .norms import (
    DegenerateField,
    gn_ratio,
    lp_norm,
    sobolev_seminorm,
)
from .solver import (
    InitSpec,
    NumericalBlowup,
    SolverConfig,
    SolverState,
    init_beltrami,
    init_random_divfree,
    init_taylor_green,
    nonlinear_rhs,
    run,
    step,
)
from .criteria import (
    CalibrationRecord,
    CriterionConfig,
    EmptyCorpus,
    MonitorSeries,
    NonMonotoneTime,
    SerrinPair,
    accumulate,
    bkm_integrand,
    calibrate_constants,
    chan_vasseur_integrand,
    differential_inequality_check,
    gronwall_bound,
    h2_identity_residual,
    holder_check,
    log_serrin_integrand,
    serrin_integrand,
)

__version__ = "0.1.0"
