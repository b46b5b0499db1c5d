"""Exception types shared across the package."""


class EvoUnitsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EvoUnitsError):
    """Non-finite or otherwise invalid numeric input to a math operation."""


class ConfigError(EvoUnitsError):
    """Invalid experiment configuration; message names the offending field."""


class CheckpointError(EvoUnitsError):
    """Checkpoint file cannot be decoded or fails integrity checks."""


class EvaluationError(EvoUnitsError):
    """A fitness evaluation failed; the message names the dumped candidates' path."""
