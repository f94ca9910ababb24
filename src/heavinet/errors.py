"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition."""


class InvalidNetworkError(InvalidInputError):
    """A network breaks a rule of its class; ``violations`` lists every
    broken rule, one message each, as ``networks.validate`` states them."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid network: " + "; ".join(self.violations))


class PrecisionError(InvalidInputError):
    """A construction would need more bits than a float64 significand holds."""


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds a documented size limit."""


class ParseError(ValueError):
    """A network document does not match the schema.

    ``path`` points at the offending field, e.g. ``$.layers[2].W``.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
