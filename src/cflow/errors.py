"""Exception hierarchy shared by all cflow modules."""


class CFlowError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CFlowError):
    """Operand shapes are incompatible."""


class NonFiniteEntry(CFlowError):
    """A NaN or infinity entered or left a public operation, or a phase
    ``Im((z - j) log lambda)`` reached ``2^45``, where it keeps no digit."""


class SingularMatrix(CFlowError):
    """A pivot fell below the rank tolerance during factorization."""


class ZeroEigenvalue(CFlowError):
    """The matrix (or relation) has an eigenvalue at or near zero; no flow exists."""


class NonConvergence(CFlowError):
    """A LAPACK eigenvalue iteration, Schur reordering, left-eigenvector
    solve (``zgeev``), Sylvester solve or triangular inverse failed."""


class RelationInvalid(CFlowError):
    """The supplied polynomial does not annihilate the matrix within tolerance."""


class AmbiguousRank(CFlowError):
    """A linear-dependence decision fell too close to the rank tolerance."""


class UnknownCluster(CFlowError, IndexError):
    """A branch offset that names no branch: no such cluster, or a winding number not an integer."""


class MatrixParseError(CFlowError):
    """A matrix file or a complex/relation literal could not be parsed."""


class ConditioningWarning(UserWarning):
    """A condition estimate exceeded the warning threshold."""
