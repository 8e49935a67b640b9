"""Exception hierarchy shared across the package."""


class ChainsepError(Exception):
    """Base class for all library errors."""


class GeometryError(ChainsepError, ValueError):
    """Supports, regions, or cuts that violate a precondition."""


class FloatRangeError(ChainsepError, ValueError):
    """A quantity that a verdict or report needs lies beyond the float range."""


class BudgetError(ChainsepError, RuntimeError):
    """A dense computation would exceed the configured dimension budget."""

    def __init__(self, dim: int, budget: int):
        self.dim = dim
        self.budget = budget
        super().__init__(
            f"dense dimension {dim} exceeds the configured budget {budget}"
        )


class ConfigError(ChainsepError, ValueError):
    """Invalid model description or scan configuration."""
