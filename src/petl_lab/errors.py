"""Exception types shared across the package."""


class PETLLabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(PETLLabError):
    """Operand shapes are incompatible for the requested operation."""


class GeometryError(PETLLabError):
    """Input extents do not fit the patch/window geometry."""


class ConfigError(PETLLabError):
    """Invalid configuration value or malformed config file."""


class NonFiniteError(PETLLabError):
    """A value became NaN or Inf; results are not trustworthy.

    The message names the operation, or the model scope (for example
    ``stage2.block1.attn``) whose result or checked intermediate was not
    finite; see :func:`petl_lab.tensor.scoped`.
    """


class StaleGraphError(PETLLabError):
    """Backward was requested over a graph that was already consumed."""
