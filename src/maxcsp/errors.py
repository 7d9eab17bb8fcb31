"""Exception types shared across the toolkit."""


class MaxCspError(Exception):
    """Base class for all toolkit errors."""


class MalformedInstanceError(MaxCspError, ValueError):
    """An instance object violates a structural invariant."""


class ContractViolationError(MaxCspError, ValueError):
    """An operation received an argument of the wrong kind or shape."""


class PreconditionError(MaxCspError, RuntimeError):
    """A solver precondition does not hold for the given input."""


class ResourceLimitError(MaxCspError, RuntimeError):
    """A configured search budget or size limit would be exceeded."""


class LemmaViolationError(MaxCspError, RuntimeError):
    """A selection step that is guaranteed to succeed failed at runtime."""


class ParseError(MaxCspError, ValueError):
    """Input text does not conform to the expected file format."""

    def __init__(self, line_number: int, message: str, path: str | None = None):
        if path is None:
            super().__init__(f"line {line_number}: {message}")
        else:
            super().__init__(f"{path}: {message} (line {line_number})")
        self.line_number = line_number
        self.message = message
