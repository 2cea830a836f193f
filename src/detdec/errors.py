"""Exception types shared across the package."""


class ResourceLimitError(RuntimeError):
    """A configured size or budget cap was exceeded; the message names the cap."""


class MissingStateError(LookupError):
    """A state was requested from a table or policy that does not cover it."""


class PolicyFormatError(ValueError):
    """A policy document failed validation; the message names the offending field."""


class InstanceFormatError(ValueError):
    """An instance descriptor failed validation; the message names the offending field."""
