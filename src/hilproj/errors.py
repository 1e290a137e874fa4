"""Exception types shared across the library.

Every contract violation raises one of these instead of a bare ValueError,
so callers (and the CLI) can map failures onto stable categories.
"""


class HilprojError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(HilprojError):
    """Operands have incompatible coefficient lengths."""


class WeightMismatch(HilprojError):
    """Operands carry different inner-product weightings."""


class OutOfDomain(HilprojError):
    """Scalar argument outside the function's domain."""


class NotUnitVector(HilprojError):
    """Argument required to lie on the unit sphere does not."""


class NotInSet(HilprojError):
    """Point required to belong to the set does not."""


class NotOnSphere(HilprojError):
    """Point required to lie on the bounding sphere does not."""


class ZeroDirection(HilprojError):
    """Direction argument is the zero vector."""


class ZeroVertex(HilprojError):
    """Cone argument is the vertex where the operation is undefined."""


class SpaceMismatch(HilprojError):
    """Bochner operands live over different probability spaces or differ in per-atom dimension."""


class UnknownAtom(HilprojError):
    """Atom id does not belong to the probability space."""


class EmptySubset(HilprojError):
    """Subset of atoms must be nonempty."""


class NoHalfMeasureSubset(HilprojError):
    """No subset of atoms has total measure 1/2."""


class NotInCone(HilprojError):
    """Function required to lie in the pointwise cone does not."""


class NotCovered(HilprojError):
    """No analytic formula covers the requested case."""


class InputError(HilprojError):
    """Malformed external input (JSON payloads, CLI flags)."""


__all__ = sorted(name for name, obj in globals().items()
                 if isinstance(obj, type) and issubclass(obj, HilprojError))
