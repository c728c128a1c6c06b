"""Exception taxonomy shared across the package, and the type check of the
config records.

Every error raised by the library derives from PmtlError and carries the
process exit code the CLI should use: 1 for usage/config problems (such as
parameters in another layout than the model's), 2 for data problems (such
as a table with more or fewer ids than rows), 3 for numerical failures.
``check_fields`` checks each field of a config record against its
annotation and raises ConfigError.
"""

import functools
import sys
import typing


class PmtlError(Exception):
    exit_code = 3


class ConfigError(PmtlError, ValueError):
    """Bad configuration or CLI usage."""

    exit_code = 1


_type_hints = functools.cache(typing.get_type_hints)
_NAMES = {int: "an integer", float: "a number", tuple: "a list",
          tuple[int, ...]: "a list of integers"}


def _fits(value, hint) -> bool:
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Literal:
        return value in args
    if hint is tuple or typing.get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value if args)
    if hint in (int, float):  # a float field takes ints; NaN fails the bound, ints compare exactly
        return (isinstance(value, (int, hint)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, hint)  # a nested record


def check_fields(record) -> None:
    """Check each field of the dataclass ``record`` against its annotation
    and raise ConfigError naming the first that does not fit. A bool is not
    a number, a real must be finite and a list given for a tuple is stored
    as a tuple."""
    for name, hint in _type_hints(type(record)).items():
        value = getattr(record, name)
        if not _fits(value, hint):
            args = typing.get_args(hint)
            what = _NAMES.get(hint) or (f"one of {args}" if args else f"a {hint.__name__}")
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        if isinstance(value, list):
            object.__setattr__(record, name, tuple(value))


class DataError(PmtlError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class DataFormatError(DataError):
    """Parse failure in a data file; carries the offending line number."""

    def __init__(self, message, path=None, line=None):
        loc = ("" if path is None else f"{path}") + ("" if line is None else f":{line}")
        super().__init__(f"{loc}: {message}" if loc else message)
        self.path, self.line = path, line


class NumericalError(PmtlError):
    """Non-finite value or other numerical breakdown."""

    exit_code = 3
