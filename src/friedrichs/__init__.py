"""Numerical laboratory for slowly driven bound states at a continuum threshold.

A rank-one bound state coupled to a discretized continuum is driven by a
smooth compactly supported rotation. The package measures how much
probability leaks out of the followed spectral subspace as the driving
slows down, verifies the power-law tails that appear when the bound
state sits at the continuum threshold, and contrasts them with the
superpolynomial decay of the gapped control case.
"""

__version__ = "0.2.0"

from .errors import (AssemblyError, ConfigurationError, ConvergenceFailure,
                     FitDomainError, FriedrichsError, IntegrationFailure,
                     NumericalOverflow, PrecisionLimitError,
                     ResourceBudgetError, SpectralSeparationError)
from .model import (DiscretizedMeasure, FormFactor, FriedrichsModel,
                    SwitchingProfile, assemble_model, build_form_factor,
                    build_grid, build_switching, rotate)
from .oscint import bump_transform, bump_transform_asymptotic, rate_transform
from .propagate import Trajectory, evolve_true, evolve_wave_operator
from .volterra import (adiabatic_defect, first_order_tail, kernel_columns,
                       wave_operator_series)
from .contour import (ContourSpec, ibp_suite, slaved_tail_probe, tilde,
                      tilde_eigenbasis, verify_ibp)
from .sweep import (FitResult, SweepConfig, SweepResult, emit_report,
                    fit_powerlaw, load_config_file, resolve_config, run_sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
