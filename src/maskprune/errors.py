"""Exception types shared across the toolkit."""


class MaskPruneError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MaskPruneError, ValueError):
    """An operand had an incompatible or malformed shape."""


class DataError(MaskPruneError, ValueError):
    """A dataset file was malformed or a batch request was invalid."""


class ConfigError(MaskPruneError, ValueError):
    """A configuration file or value was rejected."""


class CheckpointError(MaskPruneError, ValueError):
    """A checkpoint file was malformed, truncated, or version-incompatible."""


class NumericalError(MaskPruneError, ArithmeticError):
    """A training loss came out NaN or Inf; raised before any weight update."""


class ConvergenceError(MaskPruneError, RuntimeError):
    """A pruning strategy failed to reach a stable binary state.

    Carries the last soft keep vector so callers can inspect what was stuck.
    """

    def __init__(self, message: str, soft_keep=None):
        super().__init__(message)
        self.soft_keep = soft_keep
