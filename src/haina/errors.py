"""Exception hierarchy. Each class maps to a distinct CLI exit code."""


class HainaError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class UsageError(HainaError):
    """Bad arguments or preconditions the caller can fix."""

    exit_code = 2


class NetworkError(HainaError):
    """Endpoint unreachable or request timed out."""

    exit_code = 3


class IntegrityError(HainaError):
    """Data does not match its digest, padding, or claimed content."""

    exit_code = 4


class IncompleteChainError(HainaError):
    """One or more blocks of a chain could not be located."""

    exit_code = 5

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__("chain incomplete, unresolved addresses: " + ", ".join(d.hex() for d in self.missing))


class ParseError(HainaError):
    """Malformed document (meta file, node file, cluster spec)."""

    exit_code = 2

    def __init__(self, field, reason):
        self.field = field
        super().__init__(f"{field}: {reason}")


class CampaignError(HainaError):
    """Storage-right campaign produced no usable candidate."""

    exit_code = 3
