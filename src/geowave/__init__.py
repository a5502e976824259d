"""Localized stochastic wave maps into compact targets, on an exact lattice.

The package simulates the extrinsic wave-map equation with multiplicative
spatially-homogeneous noise, its controlled zero-noise skeleton, and the
diagnostics behind the small-noise picture: pathwise cone-energy bounds, a
variational rate evaluator, and weak-perturbation / noise-linearity probes.
"""

__version__ = "0.1.0"

from .energy import (
    EnergyReport,
    energy,
    perpendicularity_defect,
    verify_energy_inequality,
    verify_energy_transforms,
)
from .errors import ConfigInvalid, GeowaveError
from .function_spaces import (
    GridFunction,
    LightCone,
    State,
    extend,
    l2_inner,
    sobolev_sq,
)
from .geometry import DiffusionField, ManifoldModel
from .ldp import (
    ConvergenceReport,
    RateOptions,
    RateResult,
    rate_function,
    statement1_probe,
    statement2_probe,
    tail_estimate,
)
from .noise import (
    NoiseBasis,
    SpectralMeasure,
    build_basis,
    covariance_kernel,
    hs_embedding_norm,
    sample_increment,
)
from .rng import stream
from .solver import (
    Control,
    LocalizationParams,
    Trajectory,
    mild_residual,
    solve_batch,
    solve_skeleton,
    solve_stochastic,
    window_norm,
)
from .states import (
    GridGeometry,
    bump_state,
    constant_state,
    make_grid,
    random_state,
    rotating_state,
    twin_pair,
)
from .wave_group import apply_group, lattice_steps

__all__ = [
    "__version__",
    "EnergyReport",
    "energy",
    "perpendicularity_defect",
    "verify_energy_inequality",
    "verify_energy_transforms",
    "ConfigInvalid",
    "GeowaveError",
    "GridFunction",
    "LightCone",
    "State",
    "extend",
    "l2_inner",
    "sobolev_sq",
    "DiffusionField",
    "ManifoldModel",
    "ConvergenceReport",
    "RateOptions",
    "RateResult",
    "rate_function",
    "statement1_probe",
    "statement2_probe",
    "tail_estimate",
    "NoiseBasis",
    "SpectralMeasure",
    "build_basis",
    "covariance_kernel",
    "hs_embedding_norm",
    "sample_increment",
    "stream",
    "Control",
    "LocalizationParams",
    "Trajectory",
    "mild_residual",
    "solve_batch",
    "solve_skeleton",
    "solve_stochastic",
    "window_norm",
    "GridGeometry",
    "bump_state",
    "constant_state",
    "make_grid",
    "random_state",
    "rotating_state",
    "twin_pair",
    "lattice_steps",
    "apply_group",
]
