"""Exception hierarchy shared by all modules.

Each class maps to one CLI exit code: ValidationError -> 1,
NumericalError -> 2, ParseError (and other I/O failures) -> 3.
"""

import math
from numbers import Integral


class CospaceError(Exception):
    pass


class ValidationError(CospaceError):
    """Bad arguments or inconsistent inputs (shapes, ranges, labels)."""


class NumericalError(CospaceError):
    """Singular / rank-deficient / non-finite linear algebra."""


class ParseError(CospaceError):
    """Malformed data file; carries the offending line when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


def check_number(name, value, kind):
    """Raise a ValidationError naming `name` unless `value` is a finite `kind`
    (numbers.Integral or numbers.Real). A bool is neither."""
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (isinstance(value, Integral) or math.isfinite(value))):
        noun = "an integer" if kind is Integral else "a finite real number"
        raise ValidationError(f"{name} must be {noun}, got {value!r}")


def check_numbers(name, values, kind):
    """check_number on each entry of `values`, a nonempty list or tuple."""
    if not isinstance(values, (list, tuple)) or len(values) == 0:
        raise ValidationError(f"{name} must be a nonempty list")
    for i, v in enumerate(values):
        check_number(f"{name}[{i}]", v, kind)


def check_keys(what, doc, allowed, required=()):
    """Raise a ValidationError naming the key unless `doc` is a JSON object
    with every key of `required` and no key outside `allowed`."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValidationError(f"{what} key {unknown[0]!r} is not one of "
                              f"{', '.join(sorted(allowed))}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValidationError(f"{what} lacks the key {missing[0]!r}")
