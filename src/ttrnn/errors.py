"""The error taxonomy: every ttrnn exception derives from exactly one base.

The command line maps each base to its exit code (2 config, 3 data,
4 shape), so a new error class only has to pick its base.
"""


class ConfigError(ValueError):
    """A setting is malformed or out of range."""


class DataError(ValueError):
    """Input data or a file read from outside is unusable."""


class ShapeError(ValueError):
    """Shapes, modes, ranks or lengths do not line up."""


class LengthMismatch(ShapeError):
    """Sequences that must align have different lengths."""
