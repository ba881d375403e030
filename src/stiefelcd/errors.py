"""Exception types shared across the toolkit."""


class DimensionError(ValueError):
    """Input has the wrong shape (wide, non-square, or mismatched)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


class DivergenceError(RuntimeError):
    """An iterate became non-finite or left the region the solver can handle."""


class SafeguardViolationError(RuntimeError):
    """A configured safeguard bound was violated; the message names the bound."""


class ConfigurationError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""
