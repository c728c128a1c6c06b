"""Exception taxonomy shared across the package.

Every error raised by the library derives from PmtlError and carries the
process exit code the CLI should use: 1 for usage/config problems, 2 for
data problems, 3 for numerical failures. ``is_number`` is the type rule
the config records check their numeric fields with.
"""


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is an int or, unless ``integer``, a float. A bool
    is neither, although Python counts it as an int."""
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


class PmtlError(Exception):
    exit_code = 3


class ConfigError(PmtlError):
    """Bad configuration or CLI usage."""

    exit_code = 1


class DataError(PmtlError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class DataFormatError(DataError):
    """Parse failure in a data file; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path = path
        self.line = line


class IdMismatchError(DataError):
    """Sample id sets disagree between two inputs."""


class ShapeError(PmtlError, ValueError):
    """Operand shapes are incompatible; names both shapes."""

    def __init__(self, op, shape_a, shape_b=None):
        if shape_b is None:
            msg = f"{op}: bad shape {tuple(shape_a)}"
        else:
            msg = f"{op}: incompatible shapes {tuple(shape_a)} and {tuple(shape_b)}"
        super().__init__(msg)


class NumericalError(PmtlError):
    """Non-finite value or other numerical breakdown."""

    exit_code = 3


class MissingClassError(DataError, ValueError):
    """A class id never occurs in the reference labels, so per-class recall
    is undefined."""

    def __init__(self, absent_classes):
        absent = tuple(sorted(absent_classes))
        super().__init__(f"recall undefined: classes {absent} absent from reference labels")
        self.absent_classes = absent

