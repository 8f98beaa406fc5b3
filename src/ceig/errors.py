"""Exception types shared across the package.

The CLI maps these onto exit codes: validation and parse problems exit
with 2, solver non-convergence with 3, and violated runtime guarantees
(interval containment or nesting, or a largest C-eigenvalue below the
tensor's largest entry) with 4.
"""


class CeigError(Exception):
    exit_code = 1


class ValidationError(CeigError):
    exit_code = 2


class BadLength(ValidationError):
    pass


class NonFinite(ValidationError):
    pass


class SymmetryViolation(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class NegativeInput(ValidationError):
    pass


class UnsupportedDimension(ValidationError):
    pass


class RadicandNegative(ValidationError):
    """Quadratic-interval radicand below the numerical tolerance band.

    A genuinely negative radicand means the inputs were not a largest
    C-eigenvalue paired with the extreme Z-values of a true lift
    difference, so this surfaces loudly instead of clamping.
    """


class ParseError(ValidationError):
    def __init__(self, path, line_no, reason):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


class NoConvergence(CeigError):
    exit_code = 3

    def __init__(self, message, best_residual=None):
        if best_residual is not None:
            message = f"{message} (best residual {best_residual:.3e})"
        super().__init__(message)
        self.best_residual = best_residual


class PropertyViolation(CeigError):
    """A guaranteed property (containment, nesting, positivity) failed."""

    exit_code = 4
