"""Error types shared across the package.

Every failure that callers are expected to handle is an AbstraktError
subclass carrying a machine-readable ``kind`` tag and a ``details`` dict.
The CLI maps error categories to exit codes: input validation problems
exit with 2, semantic evaluation problems with 3, enumeration budget
overruns with 4.
"""

from __future__ import annotations


class AbstraktError(Exception):
    """Base class for all package errors."""

    kind = "error"
    exit_code = 3

    def __init__(self, message, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_payload(self):
        return {"kind": self.kind, "message": self.message, "details": self.details}


# --- input validation (exit code 2) ---

class ValidationError(AbstraktError):
    exit_code = 2


class CyclicDependencies(ValidationError):
    kind = "CyclicDependencies"


class NonNormalizedBlock(ValidationError):
    kind = "NonNormalizedBlock"


class PartialMechanism(ValidationError):
    kind = "PartialMechanism"


class DomainMismatch(ValidationError):
    kind = "DomainMismatch"


class UnknownVariable(ValidationError):
    kind = "UnknownVariable"


class IncompleteAssignment(ValidationError):
    kind = "IncompleteAssignment"


class NotPartition(ValidationError):
    kind = "NotPartition"


class InadmissibleClustering(ValidationError):
    kind = "InadmissibleClustering"


class IncompleteValuePartition(ValidationError):
    kind = "IncompleteValuePartition"


class UnknownHighValue(ValidationError):
    kind = "UnknownHighValue"


class QuerySyntaxError(ValidationError):
    """Query text failed to parse; ``position`` is a 0-based character offset."""

    kind = "SyntaxError"

    def __init__(self, message, position, **details):
        super().__init__(message, position=position, **details)
        self.position = position


# --- evaluation semantics (exit code 3) ---

class ZeroConditioning(AbstraktError):
    kind = "ZeroConditioning"


class NotClusterUnion(AbstraktError):
    kind = "NotClusterUnion"


class ImpossibleContext(AbstraktError):
    kind = "ImpossibleContext"


class UnboundVariable(AbstraktError):
    kind = "UnboundVariable"


class UnsupportedData(AbstraktError):
    kind = "UnsupportedData"


# --- enumeration budget (exit code 4) ---

class SizeExceeded(AbstraktError):
    kind = "SizeExceeded"
    exit_code = 4
