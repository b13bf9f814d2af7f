"""Exception kinds shared across the package, and the int-argument check
that raises one of them."""

import numbers


class DimensionError(ValueError):
    """Tensor or layer shapes do not line up."""


class ConfigurationError(ValueError):
    """A layer, dataset, or run configuration cannot produce a valid result."""


def require_int(name, value, lo, hi=None):
    """value if it is an int (a bool is not) in [lo, hi], else a
    ConfigurationError naming `name`; hi None means no upper bound."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if hi is None and value < lo:
        raise ConfigurationError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise ConfigurationError(f"need {lo} <= {name} <= {hi}, got {value}")
    return value


class NonFiniteError(ValueError):
    """An activation or a feature holds NaN (or infinity) where it must not."""


class TrainingDiverged(RuntimeError):
    """Training went non-finite; epoch, sample and the first non-finite
    layer's index say where (None if unknown)."""

    def __init__(self, message, epoch=None, sample=None, layer=None):
        super().__init__(message)
        self.epoch = epoch
        self.sample = sample
        self.layer = layer


class ModelFormatError(Exception):
    """Base class for model container read failures."""


class BadMagicError(ModelFormatError):
    """File does not start with the expected container magic."""


class TruncatedBlobError(ModelFormatError):
    """Container ends before the declared weight blob does."""


class ShapeChainError(ModelFormatError):
    """Layer shapes in the container do not chain together."""


class HeaderSchemaError(ModelFormatError):
    """A header field is missing or has the wrong type."""


class NonFiniteWeightsError(ModelFormatError):
    """A stored tensor holds NaN or infinity."""
