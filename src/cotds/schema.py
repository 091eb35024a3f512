"""The one reader of JSON input, scenario and network files alike.

A spec gives the type of each key of an object: a type, a spec of a
nested object (a dict), ``[t]`` for a list of ``t``, or ``(t, default)``
for an optional key.  ``require`` checks an object against its spec and
refuses an unknown or a missing key; ``coerce`` checks one value.  A
refusal is a ``SchemaError`` whose message starts with the field's path
in the file (``branches[0].r: ...``); the file's root has the path "".
"""

from __future__ import annotations

import math

__all__ = ["SchemaError", "require", "coerce"]


class SchemaError(ValueError):
    pass


# how a message names the type it expected
_KINDS = {str: "a string", bool: "true or false", list: "a list",
          dict: "an object"}


def _refuse(where: str, what: str) -> SchemaError:
    return SchemaError(f"{where}: {what}" if where else what)


def require(d, where: str, spec: dict) -> dict:
    """The object ``d`` at path ``where`` as a new dict: each key's value
    coerced to its type in ``spec``, or an optional key's default when
    absent."""
    coerce(d, dict, where)
    if not d.keys() <= spec.keys():
        raise _refuse(where, f"unknown keys {sorted(d.keys() - spec.keys())}")
    at = f"{where}." if where else ""
    out = {}
    for key, typ in spec.items():
        optional = isinstance(typ, tuple)
        if key in d:
            out[key] = coerce(d[key], typ[0] if optional else typ, at + key)
        elif optional:
            out[key] = typ[1]
        else:
            raise _refuse(at + key, "missing")
    return out


def coerce(value, typ, where: str):
    """``value`` checked against ``typ``, a spec's entry for one key; a
    float is any finite JSON number, made a float, and neither a float
    nor an int is a bool."""
    if type(value) is typ and (typ is not float or math.isfinite(value)):
        return value  # the common case, taken as it is
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _refuse(where, f"expected a finite number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            raise _refuse(where, f"must be finite, got {number}")
        return number
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _refuse(where, f"expected an integer, got {value!r}")
        return value
    if isinstance(typ, dict):
        return require(value, where, typ)
    if isinstance(typ, list):
        return [coerce(x, typ[0], f"{where}[{i}]")
                for i, x in enumerate(coerce(value, list, where))]
    if not isinstance(value, typ):
        raise _refuse(where, f"expected {_KINDS.get(typ, typ.__name__)}, "
                             f"got {type(value).__name__}")
    return value
