"""Exception types shared across the package."""

import numbers


class StructuralError(ValueError):
    """Shapes, dimensions, or identifiers do not fit together."""


class ConfigurationError(ValueError):
    """A constraint, solver, or instance references data that is absent
    or inconsistent (e.g. an emergency atom on an instance without an
    emergency block)."""


def _require_int(what: str, value, least: int) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an integer
    no less than ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ConfigurationError(f"{what} must be an integer >= {least}, got {value!r}")


class ParseError(ValueError):
    """Constraint expression text is malformed.

    ``offset`` is the 0-based byte offset of the first offending
    character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class InfeasibleError(RuntimeError):
    """No point satisfying the constraints exists (or was found where
    existence is required)."""


class TableGenerationError(RuntimeError):
    """The roster generator exhausted its retry budget on some day.

    ``day`` is the 0-based day index where the admissible pool ran dry.
    """

    def __init__(self, message: str, day: int):
        super().__init__(message)
        self.day = day


class SearchSpaceError(RuntimeError):
    """Exact search refused: the enumeration space exceeds the desk-scale
    cap. ``estimate`` carries the node-count estimate."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


class MetricError(ValueError):
    """A benchmark metric is undefined for the given inputs."""
