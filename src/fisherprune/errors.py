"""Exception kinds shared across the package."""


class DimensionError(ValueError):
    """Tensor or layer shapes do not line up."""


class ConfigurationError(ValueError):
    """A layer, dataset, or run configuration cannot produce a valid result."""


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
