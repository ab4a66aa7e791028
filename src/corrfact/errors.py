"""Exception types raised on contract violations.

Numerical precondition and invariant failures derive from
NumericalContractError so callers (and the CLI) can tell them apart from
malformed input files, which raise MatrixFormatError.
"""

from __future__ import annotations


class NumericalContractError(ValueError):
    """A numerical precondition or invariant does not hold."""


class ShapeError(NumericalContractError):
    """Matrix or vector dimensions are inconsistent with the operation."""


class NotHermitianError(NumericalContractError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotSymmetricError(NumericalContractError):
    """Matrix expected to be real symmetric is not, beyond tolerance."""


class NotPsdError(NumericalContractError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


class SingularMatrixError(NumericalContractError):
    """Matrix required to have full rank is numerically singular."""


class NonUnitVectorError(NumericalContractError):
    """Vector required to have unit norm does not."""


class CSystemMismatchError(NumericalContractError):
    """Vector system does not reproduce the target bipartite correlation."""


class NotRankOneError(NumericalContractError):
    """State expected to be rank one has higher numerical rank."""


class InconsistentSumsError(NumericalContractError):
    """Per-index outcome sums of a paired factor family disagree."""


class ZeroSumError(NumericalContractError):
    """Common outcome-sum matrix is numerically zero."""


class InvariantViolationError(NumericalContractError):
    """A structural invariant of a constructed object fails to hold."""


class EmptyRankError(NumericalContractError):
    """A rank cutoff keeps no eigenvalue or singular value, so there is nothing to build on."""


class MemoryBudgetError(NumericalContractError):
    """An array would take more memory than the budget allows (linalg.MEMORY_BUDGET)."""


class MatrixFormatError(ValueError):
    """A matrix file or manifest is malformed."""
