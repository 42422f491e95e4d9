"""Exception types raised across the solver, verifiers and simulator."""


class SolverError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveParameter(SolverError):
    def __init__(self, field, value):
        self.field = field
        self.value = value
        super().__init__(f"parameter {field!r} must be > 0, got {value!r}")


class CostNotConvex(SolverError):
    """Maintenance cost fails f(0)=0, f'>0 or f''>0."""


class OutOfRange(SolverError):
    """Reserve level outside [0, 1], regime outside {1, 2}, non-finite state."""


class DegenerateDiscriminant(SolverError):
    """Reduced quadratic has no two distinct positive roots (internal)."""


class CrossCheckFailed(SolverError):
    """Two independent formulas for the same constant disagree."""


class PreconditionViolated(SolverError):
    """Operation called outside its documented precondition."""


class DomainError(SolverError):
    """Argument outside the domain of a boundary-system function."""


class AssumptionViolated(SolverError):
    """Feasibility conditions fail in both regime labelings."""

    def __init__(self, message, report=None, swapped_report=None):
        self.report = report
        self.swapped_report = swapped_report
        super().__init__(message)


class NoBracket(SolverError):
    """Monotone root search found no sign change (internal inconsistency)."""


class VerificationFailed(SolverError):
    """A grid verifier found a residual above tolerance."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class QuadratureNotConverged(SolverError):
    """Adaptive Simpson refinement exceeded the maximum depth."""


class OrderingViolated(SolverError):
    def __init__(self, message, x=None):
        self.x = x
        super().__init__(message)


class SRPViolated(SolverError):
    """Discrete Skorokhod reflection conditions fail on a trace."""

    def __init__(self, message, step=None, path=None):
        self.step = step
        self.path = path
        super().__init__(message)
