"""Exception types shared across the package."""


class QocError(Exception):
    """Base class for all package errors."""


class ContractError(QocError):
    """A caller violated an API contract (e.g. wrong pulse sign convention)."""


class OptimizationError(QocError):
    """The optimizer hit a non-finite cost or gradient; carries the iterate."""

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class SampleNotFoundError(QocError, KeyError):
    """Registry lookup for an unknown sample name."""
