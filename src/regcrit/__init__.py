"""Periodic-box incompressible Navier-Stokes with regularity-criterion monitors."""

from .spectral import (
    Grid,
    RealScalarField,
    SpectralScalarField,
    SpectralVelocityField,
    VelocityField,
    divergence,
    fft_forward,
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
    init_beltrami,
    init_random_divfree,
    init_taylor_green,
    nonlinear_rhs,
    run,
)
from .criteria import (
    CalibrationRecord,
    CriterionConfig,
    MonitorSeries,
    NonMonotoneTime,
    SerrinPair,
    accumulate,
    calibrate_constants,
    differential_inequality_check,
    gronwall_bound,
    h2_identity_residual,
    holder_check,
)

__version__ = "0.1.0"
