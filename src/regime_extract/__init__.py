"""Two-regime optimal commodity extraction: closed-form solver, grid
verifiers and Monte Carlo cross-validation."""

__version__ = "0.1.0"

from .errors import (AssumptionViolated, CostNotConvex, CrossCheckFailed,
                     DegenerateDiscriminant, DomainError, NoBracket,
                     NonPositiveParameter, OrderingViolated, OutOfRange,
                     PreconditionViolated, QuadratureNotConverged, SolverError,
                     SRPViolated, VerificationFailed)
from .model import (AssumptionReport, Characteristic, CostFunction,
                    ModelParams, check_assumptions, chat, feasibility_scan,
                    params_from_config, phi, solve_characteristic, validate)
from .stopping import (StoppingSolution, g1, g2, m1, m2, solve_z, verify_fbp,
                       v, w, w_x, w_xx, x_star, zhat2)
from .control import (ControlSolution, U, U_report, U_x, U_xx, ValueReport,
                      b_sharp, b_star, compare_boundaries, from_stopping,
                      single_regime_boundary, solve_control, verify_hjb)
from .mcsim import (Policy, SimConfig, SimOutcome, Trace, estimate_value,
                    simulate_traces, skorokhod_check, trace_to_csv)

__all__ = [name for name in dir() if not name.startswith("_")]
