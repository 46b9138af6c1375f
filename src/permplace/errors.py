"""Exception hierarchy shared by all permplace modules."""


class PermplaceError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PermplaceError):
    """A file could not be parsed; the message names the locus (file/field)
    when known."""

    def __init__(self, message, locus=None):
        super().__init__(f"{locus}: {message}" if locus else message)


class ValidationError(PermplaceError):
    """Parsed data violates a structural invariant."""


class LinkError(PermplaceError):
    """App + overlays could not be linked into one program."""


class CycleError(PermplaceError):
    """Inheritance cycle detected while building the class hierarchy."""


class ConflictError(PermplaceError):
    """Two specs give one key entries that differ in permissions, anyOf or constValue."""

    def __init__(self, conflicts):
        super().__init__("conflicting entries for: " + ", ".join(str(k) for k in conflicts))


class InconsistentInput(PermplaceError):
    """A detected sensitive is not CHA-reachable (partition precondition)."""
