"""Exception hierarchy shared across the library and the CLI exit-code map."""


class GpcaError(Exception):
    """Base class for all library errors."""


class InputError(GpcaError):
    """Malformed files, schemas, or argument combinations (CLI exit code 2)."""


class FitError(GpcaError):
    """Polynomial fitting or normal-space vote failure (CLI exit code 3)."""


class DegenerateDataError(FitError):
    """All singular values are zero; the data carries no usable structure."""


class StageError(FitError):
    """A segmentation fit or vote failed; remembers the degree of the fit."""

    def __init__(self, degree, message):
        super().__init__(f"stage degree={degree}: {message}")
        self.degree = degree


class DiscoveryError(GpcaError):
    """Model discovery could not find a consistent arrangement (CLI exit code 4)."""
