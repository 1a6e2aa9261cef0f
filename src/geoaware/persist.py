"""Strict reading of config sections and atomic file writes.

Config sections are dataclasses whose fields all have defaults.  They are
written with ``dataclasses.asdict`` and read back with ``from_dict``, the one
decoder shared by run configs, checkpoint headers and dataset headers.
``read_str``, ``read_int`` and ``read_floats`` apply the same no-coercion rule
to the other fields of dataset files and checkpoint headers.  Float fields
must be finite everywhere.
"""

import dataclasses
import os
import sys

from geoaware.errors import ConfigError, FormatError

# NaN, +-inf and ints beyond the float range all fail -_FLOAT_MAX <= x <= _FLOAT_MAX,
# which compares an int exactly instead of converting it (a per-value cost of loading)
_FLOAT_MAX = sys.float_info.max


def from_dict(cls, data, section, error=ConfigError):
    """Build the dataclass ``cls`` from a JSON object.

    Missing keys keep their defaults.  A non-object, an unknown key, or a value
    whose type differs from the field's default raises ``error``: an int
    passes for a float, but a bool never passes for a number nor a number for
    a bool, values are never coerced, and a float field must be finite (NaN,
    infinity and an int beyond the float range fail).  A field whose default
    is itself a dataclass is read recursively as the section named after the
    field.
    """
    if not isinstance(data, dict):
        raise error(f"config section {section!r} must be an object, got {type(data).__name__}")
    defaults = cls()
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise error(f"unknown keys in config section {section!r}: {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        default = getattr(defaults, name)
        if dataclasses.is_dataclass(default):
            value = from_dict(type(default), value, name, error)
        elif type(value) is not type(default) and not (type(value) is int and type(default) is float):
            raise error(
                f"config section {section!r}: {name} must be {type(default).__name__}, got {type(value).__name__}"
            )
        elif type(default) is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise error(f"config section {section!r}: {name} must be finite, got {value!r}")
        kwargs[name] = value
    return cls(**kwargs)


def read_str(value, name):
    """``value`` if it is a str; a number, bool, null or list raises ``FormatError``."""
    if type(value) is not str:
        raise FormatError(f"{name} must be str, got {type(value).__name__}")
    return value


def read_int(value, name):
    """``value`` if it is an int; a float, string or bool raises ``FormatError``."""
    if type(value) is not int:
        raise FormatError(f"{name} must be int, got {type(value).__name__}")
    return value


def read_floats(values, name):
    """``values`` if it is a list of finite ints or floats; a string, bool,
    NaN, infinity, an int beyond the float range or anything else raises
    ``FormatError``.  Every such entry is a physical quantity."""
    if type(values) is not list:
        raise FormatError(f"{name} must be a list of numbers, got {type(values).__name__}")
    for v in values:
        if type(v) is not float and type(v) is not int:
            raise FormatError(f"{name} entries must be numbers, got {type(v).__name__}")
        if not -_FLOAT_MAX <= v <= _FLOAT_MAX:
            raise FormatError(f"{name} entries must be finite, got {v!r}")
    return values


def write_atomic(path, data):
    """Replace ``path`` with ``data`` (str, written as UTF-8, or bytes).

    The data goes to a temporary file beside ``path`` that is then renamed
    over it, so readers see the old file or the new one, never a torn one.  On
    failure the temporary file is removed and a previous file stays intact.
    """
    tmp = f"{os.fspath(path)}.tmp"
    mode, encoding = ("w", "utf-8") if isinstance(data, str) else ("wb", None)
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
