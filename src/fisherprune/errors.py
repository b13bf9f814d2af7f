"""Exception kinds shared across the package, the int and number argument
checks that raise one of them, and the header-field check of the model
container."""

import math
import numbers
import sys


class DimensionError(ValueError):
    """Tensor or layer shapes do not line up."""


class ConfigurationError(ValueError):
    """A layer, dataset, or run configuration cannot produce a valid result."""


def is_int(value):
    """True for a Python or numpy int; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_int(name, value, lo, hi=None):
    """value if it is an int (a bool is not) in [lo, hi], else a
    ConfigurationError naming `name`; hi None means no upper bound."""
    if not is_int(value):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if hi is None and value < lo:
        raise ConfigurationError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise ConfigurationError(f"need {lo} <= {name} <= {hi}, got {value}")
    return value


def require_positive(name, value, or_zero=False):
    """value if it is a finite number (a bool is not) > 0, or >= 0 when
    or_zero, else a ConfigurationError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int past the float range
        finite = False
    if not (finite and (value >= 0 if or_zero else value > 0)):
        raise ConfigurationError(
            f"{name} must be finite and {'>=' if or_zero else '>'} 0, got {value}")
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


def require_field(value, kind, what):
    """value as a kind, else HeaderSchemaError naming what. A bool is not an
    int or a float, an int is read as a float, and a float must be finite."""
    if (not isinstance(value, (int, float) if kind is float else kind)
            or (isinstance(value, bool) and kind is not bool)
            or (kind is float and not abs(value) <= sys.float_info.max)):
        got = "missing" if value is None else f"{type(value).__name__} {value!r:.20}"
        raise HeaderSchemaError(f"{what}: expected {kind.__name__}, got {got}")
    return float(value) if kind is float else value
