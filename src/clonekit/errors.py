"""Errors that the CLI maps to its exit codes: 2 configuration, 3 numerical."""


class ConfigurationError(ValueError):
    """Raised when a requested discretization or LP size is unusable."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine fails: an LP solve or a truncated law."""
