"""Deep step-activation networks with explicit weights: constructions,
exact piece analysis, shattering certificates, and bound calculators."""

from .errors import (
    InvalidInputError,
    InvalidNetworkError,
    ParseError,
    PrecisionError,
    ResourceLimitError,
)
from .networks import (
    Architecture,
    LayerParams,
    Network,
    NetworkKind,
    embed,
    evaluate,
    evaluate_batch,
    heaviside,
    validate,
)
from .radix import DigitVector, binary_digits, mixed_radix_digits

__all__ = [
    "InvalidInputError", "InvalidNetworkError", "ParseError", "PrecisionError",
    "ResourceLimitError",
    "NetworkKind", "Architecture", "LayerParams", "Network",
    "heaviside", "validate", "evaluate", "evaluate_batch", "embed",
    "DigitVector", "mixed_radix_digits", "binary_digits",
]

__version__ = "0.1.0"
