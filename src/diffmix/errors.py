"""Exception types shared across the package."""


class DiffmixError(Exception):
    """Base class for all package-specific errors."""


class UsageError(DiffmixError):
    """Bad command-line arguments or configuration."""


class DataError(DiffmixError):
    """Malformed or inconsistent input data."""


class NumericalError(DiffmixError):
    """A numerical procedure failed or left its validity envelope."""


class SeriesTruncationError(NumericalError):
    """The transition series needs more terms than wf.DEFAULT_SERIES_CAP.

    Raised when the elapsed time is too small for the tail tolerance;
    the cap is fixed: loosen the tolerance or merge near-duplicate times.
    """


class TruncationCapError(NumericalError):
    """The random truncation level exceeded the configured component cap."""
