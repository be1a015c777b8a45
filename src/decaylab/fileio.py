"""Small IO helpers: atomic text writes, round-trip float formatting, and reading outside values."""

from __future__ import annotations

import numbers
import os
import tempfile
from dataclasses import fields


def fmt_float(x) -> str:
    """Shortest decimal string that parses back to exactly the same double."""
    return repr(float(x))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file + rename so readers never see partials."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _typed(value, kind: str, name: str):
    """value as the field annotation kind reads it, else a ValueError naming name: "float" takes
    what float() takes (2 and "2.0" are 2.0), "int" an integral number (3, 3.0 or a numpy
    integer, not a bool) as an int, "bool" True or False, "str" a string; "Optional[...]" also
    takes None, and any other kind any value."""
    if value is None and kind.startswith("Optional["):
        return None
    kind = kind.removeprefix("Optional[").removesuffix("]")
    if kind == "float":
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be a number, got {value!r}") from None
    if kind == "int":
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if kind == "bool" and not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    elif kind == "str" and not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def _number_fields(obj, owner: str = "") -> None:
    """Set each float and int field, Optional or not, of a dataclass instance to its _typed
    value, the error naming owner + the field."""
    for f in fields(obj):
        if f.type.removeprefix("Optional[").removesuffix("]") in ("float", "int"):
            object.__setattr__(obj, f.name, _typed(getattr(obj, f.name), f.type, owner + f.name))
