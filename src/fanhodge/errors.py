"""Exception types shared across the package, and the JSON type checks
whose ValueError names the path of a malformed value."""

from operator import countOf


class FanhodgeError(Exception):
    """Base class for all package-specific errors."""


class DependentInput(FanhodgeError):
    """Vectors expected to be linearly independent are not."""


class UnsaturatedWindow(FanhodgeError):
    """An identification maps window data to a cone missing from the window."""


class NonFreeAction(FanhodgeError):
    """An identification fixes a cone while permuting its rays nontrivially."""


class SncConditionViolated(FanhodgeError):
    """A cone has two rays in the same equivalence class."""


class NotAComplex(FanhodgeError):
    """Differentials do not compose to zero."""


class NotEquidimensional(FanhodgeError):
    """A simplex is not a face of any top-dimensional simplex."""


class MissingInput(FanhodgeError):
    """A report needs a dimension that was not supplied."""


class InvalidParams(FanhodgeError):
    """Preset parameters are out of range."""


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an int",
               bool: "a bool"}


def json_path(*parts) -> str:
    """A JSON path from its parts: a str part is used as is, an int part is
    an index ``[i]``, and no parts is the top level."""
    return "".join(f"[{p}]" if type(p) is int else p for p in parts) or "top level"


def expect(value, kind: type, *path):
    """``value`` if it has the JSON type ``kind`` (dict, list, str, int or
    bool; a bool is not an int), else a ValueError that names
    ``json_path(*path)``.
    The path is joined only for the message."""
    if type(value) is kind if kind is int else isinstance(value, kind):
        return value
    shown = repr(value)
    if len(shown) > 60:
        shown = shown[:57] + "..."
    raise ValueError(f"{json_path(*path)}: expected {_JSON_KINDS[kind]}, got {shown}")


_MISSING = object()


def member(obj: dict, key: str, kind: type, *path):
    """``obj[key]`` checked by ``expect``, where ``path`` is the JSON path of
    the object ``obj`` (pass ``object`` as ``kind`` to skip the check).  A
    missing key raises a KeyError that names the key's path."""
    value = obj.get(key, _MISSING)
    if value is not _MISSING and (type(value) is kind if kind is int
                                  else isinstance(value, kind)):
        return value
    part = f".{key}" if path else key
    if value is _MISSING:
        raise KeyError(json_path(*path, part))
    return expect(value, kind, *path, part)


def expect_rows(rows, *path) -> int:
    """The column count of ``rows``, a list of lists of equal length, else
    a ValueError that names the path of the first bad row."""
    if (type(rows) is not list or countOf(map(type, rows), list) != len(rows)
            or len(set(map(len, rows))) > 1):
        # some check failed: find the first bad row, for the message
        for i, row in enumerate(expect(rows, list, *path)):
            if len(expect(row, list, *path, i)) != len(rows[0]):
                raise ValueError(
                    f"{json_path(*path, i)}: expected {len(rows[0])} entries, got {len(row)}"
                )
    return len(rows[0]) if rows else 0
