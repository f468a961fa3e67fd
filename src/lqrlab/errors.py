"""Exception types shared across the package."""


class LqrlabError(Exception):
    """Base class for package errors."""


class NonPositiveDefinite(LqrlabError):
    """A matrix that must be positive definite is not."""


class HorizonTooShort(LqrlabError):
    """Horizon T must be at least 1."""


class StepSizeUnderflow(LqrlabError):
    """Backtracking line search drove the step size below the floor."""


class Diverged(LqrlabError):
    """Iterate cost exceeded the divergence guard."""


class NotInSet(LqrlabError):
    """Policy violates the constraint set."""


class EmptySet(LqrlabError):
    """Constraint set parameters describe an empty set."""


class NonPositiveDelta(LqrlabError):
    """Permanent/temporary impact parameters give delta = beta - gamma/2 <= 0."""


class InsufficientDepth(LqrlabError):
    """Order size exceeds total visible volume in the book."""


class ZeroQueue(LqrlabError):
    """Book snapshot has a non-positive queue at a consumed level."""


class DegenerateDesign(LqrlabError):
    """Regression design has no variation (all regressor values equal)."""


class ZeroOptimalCost(LqrlabError):
    """Optimal cost is ~ 0, normalized error undefined."""


class ZeroDirection(LqrlabError):
    """A sphere direction's normals are all zero, so it has no direction."""
