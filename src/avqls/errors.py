"""Shared exception types."""


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is singular to working precision."""


class InvalidScheduleError(ValueError):
    """A schedule grid violated its bounds."""


class ConfigError(ValueError):
    """A run configuration failed validation; message carries the field path."""
