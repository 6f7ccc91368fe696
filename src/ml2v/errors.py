"""Error and warning types shared across the package.  Every route failure
is a NumericFailure and keeps its builtin base; DomainError is bad input."""


class DomainError(ValueError):
    """Parameter or argument combination outside the admissible domain."""


class NumericFailure(Exception):
    """The method could not certify a value at this point; another method may."""


class RegionError(NumericFailure, ValueError):
    """A point is not in the region a representation requires."""


class GeometryError(NumericFailure, ValueError):
    """Contour geometry yields no decay, or no admissible angle window."""


class QuadratureError(NumericFailure, RuntimeError):
    """Requested tolerance unreachable within the node budget."""


class PoleProximityError(NumericFailure, ValueError):
    """An integrand pole sits closer to the contour than the safety floor."""


class DegenerateDenominator(NumericFailure, ZeroDivisionError):
    """A residue or expansion denominator is below its degeneracy floor."""


class MagnitudeFloor(NumericFailure, ValueError):
    """Arguments too small in magnitude for the asymptotic expansion."""


class BudgetExceeded(NumericFailure, RuntimeError):
    """Could not certify a value: the budget ran out or the terms left the
    double range.  evaluation is the uncertified Evaluation the last route
    returned, where it returned one, and None otherwise."""

    def __init__(self, *args, evaluation=None):
        super().__init__(*args)
        self.evaluation = evaluation


class ThinWindowWarning(UserWarning):
    """The admissible contour-angle window is thin; accuracy may degrade."""
