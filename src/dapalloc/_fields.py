"""The one rule for what a number passed to dapalloc may be, as a config
field or as an argument of a public function.  A config's ``__post_init__``
declares its number fields in one :func:`check` call, and a function its
number arguments in one ``check(locals(), ...)`` call or a :func:`require`
call each; both keep only their relations (d >= 1 m, K < M, ...).

A kind is an int ``low``, for an int (not a bool) of at least ``low``, or
one of the real kinds below.  A real kind takes a real number or an array
of them (not a bool, string or complex number), checked elementwise by one
min and one max reduction; NaN fails every real kind.  A failure raises
``ValueError("<name> must be ...")``.
"""

import dataclasses
import math
import numbers

import numpy as np

__all__ = ["check", "require", "POSITIVE", "NONNEGATIVE", "BACKOFF", "REAL"]

POSITIVE = "positive"  # and finite: a physical quantity
NONNEGATIVE = "nonnegative"  # and finite: a power that may be idle, a fraction
BACKOFF = "backoff"  # nonnegative, +inf allowed: M p_max / P is inf at P = 0
REAL = "real"  # finite, of any sign: a level in dB
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce  # ndarray.min and max, less call overhead


def require(name: str, value, kind) -> None:
    """Raise ``ValueError("<name> must be ...")`` unless ``value`` is of ``kind``."""
    if isinstance(kind, int):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < kind:
            raise ValueError(f"{name} must be {'a positive int' if kind == 1 else f'an int >= {kind}'}")
        return
    if type(value) is float or not isinstance(value, (np.ndarray, bool)) and isinstance(value, numbers.Real):
        low = high = value
    else:
        array = np.asarray(value)
        if array.dtype.kind not in "iuf":
            raise ValueError(f"{name} must be a number")
        # NaN if any entry is; an empty array passes
        low, high = (_MIN(array, axis=None), _MAX(array, axis=None)) if array.size else (1.0, 1.0)
    if kind == BACKOFF:
        if not low >= 0.0:
            raise ValueError(f"{name} must {'not be NaN' if low != low else 'be nonnegative'}")
    elif not (-math.inf < low and high < math.inf):
        raise ValueError(f"{name} must be finite")
    elif kind == POSITIVE and not low > 0.0 or kind == NONNEGATIVE and not low >= 0.0:
        raise ValueError(f"{name} must be {kind}")


def check(values, **kinds) -> None:
    """:func:`require` the named fields of the dataclass ``values``, or the
    named entries of ``values`` if it is a function's ``locals()``, in order.
    A dataclass field whose default is None may also be None."""
    if isinstance(values, dict):
        optional = set()
    else:
        optional, values = {f.name for f in dataclasses.fields(values) if f.default is None}, vars(values)
    for name, kind in kinds.items():
        if values[name] is not None or name not in optional:
            require(name, values[name], kind)
