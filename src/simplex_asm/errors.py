"""Exception types shared across the package."""


class SimplexAsmError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(SimplexAsmError):
    """A requested mesh or matrix exceeds the platform index range."""


class DegenerateSimplexError(SimplexAsmError):
    """A simplex has zero volume (affinely dependent vertices)."""

    def __init__(self, element: int):
        self.element = element
        super().__init__(f"simplex {element} is degenerate (zero volume)")


class IndexRangeError(SimplexAsmError):
    """An index lies outside the declared array bounds."""


class MeshFormatError(SimplexAsmError):
    """A mesh file is malformed or internally inconsistent."""


class MeshValidationError(SimplexAsmError):
    """An in-memory mesh violates a structural invariant."""


class MatrixFormatError(SimplexAsmError):
    """A MatrixMarket file is malformed."""


class ShapeMismatchError(SimplexAsmError):
    """Two operands have incompatible shapes."""


class NonSymmetricKernelError(SimplexAsmError):
    """A symmetry-exploiting driver received a non-symmetric kernel."""


class RangeGuardError(SimplexAsmError):
    """An argument lies outside the supported parameter range."""


class NonCanonicalMatrixError(SimplexAsmError):
    """A sparse operand is not in canonical form (strictly increasing
    column indices within each row, no stored exact zero)."""
