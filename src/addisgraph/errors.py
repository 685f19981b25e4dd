"""Exception hierarchy shared across the package."""


class AddisGraphError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AddisGraphError):
    """An input value lies outside its mathematical domain."""


class InvalidSpec(AddisGraphError):
    """A gamma-sequence or weight-schedule specification is malformed."""


class NonMonotoneGamma(AddisGraphError):
    """A weight rule requiring a nonincreasing gamma sequence got an increasing one."""


class NonMonotoneConflicts(AddisGraphError):
    """Conflict sets violate monotonicity.

    Carries the violating triple ``(j, k, i)``: ``j`` conflicts with ``i``
    but not with the intermediate index ``k``.
    """

    def __init__(self, j: int, k: int, i: int):
        self.triple = (j, k, i)
        super().__init__(
            f"conflict sets are not monotone: {j} conflicts with {i} "
            f"but not with intermediate index {k}"
        )


class NonContiguousSuffix(AddisGraphError):
    """Lag form requested but a conflict set is not a contiguous suffix."""


class DegenerateRenormalization(RuntimeWarning):
    """All future weight of some source row is blocked; zero weights emitted."""


class IncompleteLedger(AddisGraphError):
    """A ledger entry is missing indicators required by a condition checker."""


class MissingAlphaC(AddisGraphError):
    """The correlation-condition checker needs joint-tail annotations that are absent."""


class MissingIndicator(AddisGraphError):
    """A level was requested before all required p-value feedback arrived."""


class ScheduleViolation(AddisGraphError):
    """A weight schedule assigns nonzero weight along a conflicting edge."""


class UnknownIndex(AddisGraphError):
    """Feedback arrived for an index with no issued level."""


class DuplicateObservation(AddisGraphError):
    """A p-value was reported twice for the same index."""


class HorizonTooLarge(AddisGraphError):
    """An enumeration oracle was asked for a horizon beyond its guard."""


class ModelUnavailable(AddisGraphError):
    """No joint null model is available for a joint-tail computation."""


class InvalidW0(AddisGraphError):
    """The FDR starting wealth is outside (0, alpha]."""


class BatchIncomplete(AddisGraphError):
    """A level needs joint-tail values from a batch that has not finished."""


class InvalidConfig(AddisGraphError):
    """A simulation or engine configuration is inconsistent."""


class EmptyOutcomeSet(AddisGraphError):
    """Metrics were requested for an empty collection of trials."""


class MissingData(AddisGraphError):
    """A replay study file lacks usable p-values."""


class ProtocolError(AddisGraphError):
    """A malformed event arrived on the stream line protocol."""

    def __init__(self, code: str, detail: str):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}")
