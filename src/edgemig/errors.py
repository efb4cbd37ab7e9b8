"""Exception types shared across the package, its one numeric check
(every number a caller hands a value class or function passes
:func:`check_number`) and :func:`checked`, which runs a value class's
checks on every build of one."""

import functools
import sys
from numbers import Integral, Real

FLOAT_MAX = sys.float_info.max


class DomainError(ValueError):
    """An input is outside the domain a function is defined on."""


class CalibrationError(DomainError):
    """A parameter fit is under-determined or otherwise impossible."""


class ScenarioError(DomainError):
    """A scenario document is malformed or inconsistent."""


def check_number(name, value, low=0, high=FLOAT_MAX, *, above=False,
                 whole=False, error=DomainError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is a real number, not
    a bool (with ``whole``, an integral one), in [low, high] (with ``above``,
    in (low, high]). ``high`` is finite, so NaN and ±inf fail the range."""
    number = value
    if type(value) is not int and (type(value) is not float or whole):
        # Past the exact-type fast path, a number is compared as a Python
        # int or float: a numpy scalar would cast the bounds to its type.
        ok = not isinstance(value, bool) \
            and isinstance(value, Integral if whole else Real)
        number = (int if whole else float)(value) if ok else None
    if number is not None and (low < number if above else low <= number) \
            and number <= high:
        return
    bounds = (f"{'>' if above else '>='} {low}" if high == FLOAT_MAX else
              f"in {'(' if above else '['}{low}, {high}]")
    raise error(f"{name} must be {'a whole number' if whole else 'finite and'}"
                f" {bounds}, got {value!r}")


def checked(cls):
    """Class decorator: every build of the ``NamedTuple`` class ``cls`` runs
    its ``_check``, whether by the constructor, ``_make`` (so ``_replace``),
    unpickling or ``copy``; all of them call ``__new__``."""
    new, check = cls.__new__, cls._check

    @functools.wraps(new)  # keeps the fields as the signature
    def __new__(cls, *args, **kwargs):
        record = new(cls, *args, **kwargs)
        check(record)
        return record

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, values: cls(*values))
    return cls
