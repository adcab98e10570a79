"""Exception taxonomy shared across the package.

Kept in one place so the CLI can map exception classes to exit codes
without importing every computational module.
"""


class FujitaError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(FujitaError, ValueError):
    """Operands live in different ambient dimensions."""


class InvalidModel(FujitaError, ValueError):
    """A model violates its construction invariants."""


class InternalError(FujitaError, RuntimeError):
    """An exact result failed the check it must pass (bug guard)."""


# --- cones ------------------------------------------------------------

class OutsideCone(FujitaError):
    """A vector required to lie in a cone does not."""


class Infeasible(FujitaError):
    """The ray never meets the cone."""


class UnboundedBelow(FujitaError):
    """The ray optimization has no finite minimum (direction not big)."""


# --- invariants -------------------------------------------------------

class NotBig(FujitaError):
    """The supplied class is not in the interior of the effective cone."""


class KPseudoEffective(FujitaError):
    """The canonical class is pseudo-effective, so the invariant is <= 0."""


class RigidityUndecidable(FujitaError):
    """No rigidity oracle applies to this model (raw model without
    intersection form)."""


class BigFailureOnY(NotBig):
    """The restricted bundle on a subvariety datum is not big."""


class IncompatibleModels(FujitaError, ValueError):
    """Pullback data does not match the two models."""


# --- delpezzo ---------------------------------------------------------

class DegreeOutOfRange(FujitaError, ValueError):
    """Del Pezzo degree outside the supported range."""


class NotPseudoEffective(FujitaError):
    """Class lies outside the pseudo-effective cone."""


class InternalNonTermination(InternalError):
    """Iterative algorithm failed its termination guarantee (bug guard)."""


class NonPositiveDegree(FujitaError, ValueError):
    """Curve degree must be positive."""


class CurveInExcludedLocus(FujitaError):
    """Curve class belongs to the excluded locus of the weak-balance test."""


# --- toric ------------------------------------------------------------

class IncompleteFan(InvalidModel):
    """Fan does not cover the ambient space."""


class NonSimplicialCone(InvalidModel):
    """A maximal cone is not simplicial."""


class NonSmoothCone(InvalidModel):
    """A maximal cone is not unimodular (smooth constructor only)."""


class NonTerminalCone(InvalidModel):
    """Strict-mode terminality box test failed for a singular cone."""


class ProjectionIncompatible(FujitaError):
    """Supplied lattice projection does not realize the semi-ample
    fibration of the adjoint divisor."""


# --- fixtures / io ----------------------------------------------------

class SchemaError(FujitaError, ValueError):
    """Model file violates the input schema."""

    def __init__(self, message, path="$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
