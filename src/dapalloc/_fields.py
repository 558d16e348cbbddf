"""The one rule for what a config number may be.  A config's ``__post_init__``
names its number fields in one :func:`check` call and keeps only their relations."""

import dataclasses
import math
import numbers

__all__ = ["check", "require"]


def require(name: str, value, low) -> None:
    """Raise ``ValueError("<name> must be ...")`` unless ``value`` is of the
    kind ``low`` picks: an int ``low`` asks for an int of at least ``low``,
    ``0.0`` for a finite positive real and ``-math.inf`` for a finite real
    of any sign.  A bool is none of them."""
    if isinstance(low, int):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            kind = "a positive int" if low == 1 else f"an int >= {low}"
            raise ValueError(f"{name} must be {kind}")
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number")
    elif not -math.inf < value < math.inf:  # before the sign: NaN passes `<= low`
        raise ValueError(f"{name} must be finite")
    elif value <= low:  # only 0.0 can be reached: no finite value is <= -inf
        raise ValueError(f"{name} must be positive")


def check(obj, **lows) -> None:
    """:func:`require` the named fields of the dataclass ``obj``, in order.
    A field whose default is None may also be None."""
    optional = {f.name for f in dataclasses.fields(obj) if f.default is None}
    for name, low in lows.items():
        if getattr(obj, name) is not None or name not in optional:
            require(name, getattr(obj, name), low)
