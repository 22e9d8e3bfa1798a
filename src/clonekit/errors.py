"""`ConfigurationError` (CLI exit 2): every check on a caller's argument raises it.
`NumericalError` (exit 3): a computation on valid input failed.  Anything else is a bug."""


class ConfigurationError(ValueError):
    """An argument or config value the routine cannot use; names it."""


class NumericalError(RuntimeError):
    """Raised when a numerical routine fails: an LP solve or a truncated law."""
