"""Exception types shared across the package."""


class RobusttsError(Exception):
    """Base class for all package-specific errors."""


class DataError(RobusttsError, ValueError):
    """Unreadable or too-short input; the command line exits 3 on it alone.

    A ``ValueError``, so callers that catch one keep working.  Carries enough
    context (file, line, field) to point at the offending input when raised
    during ingestion.
    """

    def __init__(self, message, path=None, line=None, field=None):
        self.path = path
        self.line = line
        self.field = field
        parts = []
        if path is not None:
            parts.append(f"file {path}")
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field {field!r}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class NumericalError(RobusttsError):
    """A numerical degeneracy (singular regression, zero variance, empty grid): exit 4."""
