"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1, data
problems exit 2, numerical aborts exit 3.
"""


class SentMatchError(Exception):
    """Base class for all package errors."""


class ShapeError(SentMatchError):
    """Operands have incompatible shapes; the message names both."""


class ConfigError(SentMatchError):
    """Invalid configuration value or combination of flags."""


class DataError(SentMatchError):
    """Malformed dataset record, label, or lookup key."""


class ParseError(DataError):
    """Unreadable external file (vector table, cache, checkpoint)."""


class CacheMissError(DataError):
    """Contextual vector lookup failed for a sentence id."""


class GraphError(SentMatchError):
    """Backward was asked to run through a graph an earlier backward consumed."""


class NumericalError(SentMatchError):
    """Non-finite value appeared where a finite one is required."""
