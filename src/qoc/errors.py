"""Exception types shared across the package."""


class QocError(Exception):
    """Base class for all package errors."""


class DecompositionError(QocError):
    """``linalg.expm_hermitian``'s eigendecomposition failed; carries the
    Hermiticity residual of the input."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message if residual is None else f"{message} (residual={residual:.3e})")
        self.residual = residual


class ContractError(QocError):
    """A caller violated an API contract (e.g. wrong pulse sign convention)."""


class OptimizationError(QocError):
    """The optimizer hit a non-finite cost or gradient; carries the iterate."""

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class SampleNotFoundError(QocError, KeyError):
    """Registry lookup for an unknown sample name."""
