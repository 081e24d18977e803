"""Exception types shared across the package."""


class BszegoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BszegoError):
    """Argument outside the interval a function is defined on."""


class SymmetryViolation(BszegoError):
    """Unit-circle samples break the conjugate symmetry a real polynomial requires."""


class FactorizationResidual(BszegoError):
    """|h(e^{i theta})|^2 does not reproduce rho within tolerance."""


class RootInDisk(BszegoError):
    """Spectral factor has a root strictly inside the unit disk."""


class DegreeThreshold(BszegoError):
    """Requested polynomial degree is below the admissible threshold for the measure."""


class ParityError(BszegoError):
    """Parameter parity combination has no closed form."""


class IllConditioned(BszegoError):
    """Linear solve residual exceeds tolerance."""


class DegreeExceeded(BszegoError):
    """Polynomial degree exceeds the exactness degree of a quadrature rule."""


class ConstraintViolated(BszegoError):
    """Polynomial does not satisfy a rule's side constraint (p(0) = 0)."""


class RangeError(BszegoError):
    """Integer parameter outside the admissible range."""


class PoleProximity(BszegoError):
    """Evaluation point is too close to a pole of a rational expression."""


class SlowConvergence(BszegoError):
    """Series did not converge within the term budget."""


class NoConvergence(BszegoError):
    """An iterative solver or adaptive integration missed its target within budget.

    Carries the best estimate and its error estimate where there is one.
    """

    def __init__(self, message, best=None, err_est=None):
        super().__init__(message)
        self.best = best
        self.err_est = err_est


class UnknownSuite(BszegoError):
    """Suite name not present in the verification registry."""
