"""Exception types raised by validating constructors and operators."""

__all__ = [
    "WedgeGroupError",
    "NotProper",
    "NotOrthochronous",
    "ZeroAxis",
    "DegenerateEdge",
    "NotCommuting",
    "PreconditionViolated",
    "NotAdmissible",
    "AxiomViolation",
    "BadSpec",
    "NotCyclic",
    "NotSeparating",
    "DimensionCapExceeded",
]


class WedgeGroupError(Exception):
    """Base class for all library-specific errors."""


class NotProper(WedgeGroupError):
    """A transformation with determinant -1 was passed where det +1 is required."""


class NotOrthochronous(WedgeGroupError):
    """A time-orientation-reversing transformation was passed where an
    orthochronous one is required."""


class ZeroAxis(WedgeGroupError):
    """A direction vector with norm below tolerance cannot be normalized."""


class DegenerateEdge(WedgeGroupError):
    """An edge plane is not spacelike: in ``translation_reflection``, a z and
    companion whose span is not timelike, so its complement is no
    reflection's edge."""


class NotCommuting(WedgeGroupError):
    """The supplied element does not commute with the factored transformation."""


class PreconditionViolated(WedgeGroupError):
    """Input lies outside the conjugacy class required by the operation."""


class NotAdmissible(WedgeGroupError):
    """The supplied reflection/direction violates the admissibility condition."""


class AxiomViolation(WedgeGroupError):
    """Two admissible evaluation routes disagreed beyond tolerance, so the
    reflection map does not satisfy the reconstruction axioms."""


class BadSpec(WedgeGroupError):
    """Malformed or unknown reflection-map descriptor."""


class NotCyclic(WedgeGroupError):
    """The state vector is not cyclic for the algebra."""


class NotSeparating(WedgeGroupError):
    """The state vector is not separating for the algebra."""


class DimensionCapExceeded(WedgeGroupError):
    """Matrix dimension exceeds the supported cap (d <= 16)."""
