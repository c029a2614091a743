"""Flat key=value config files for the generate and train commands.

Blank lines and lines starting with '#' are ignored; every other line must
be key=value with a key belonging to the target config; unknown keys are
rejected. The accepted keys are the scalar (int, float, bool, str) fields
of the config dataclass and of its dataclass-typed fields (``TrainConfig``'s
``schedule``): ``config_keys``. Each value is read by ``datagen.read_field``
under its type's kind, and the dataclasses check the values together.

A fault on one line (no ``=``, an unknown or repeated key, a value that
does not read as its kind) raises one ValueError that names the file, the
line and the key; a fault of the whole config (the dataclass's own
``ConfigurationError``) raises one ValueError that names the file.
"""

from dataclasses import fields, is_dataclass

from .datagen import open_text, read_field
from .numerics import ConfigurationError

# a scalar config field's type -> the FIELD_KINDS kind its text is read as
_TYPE_KINDS = {int: "int", float: "float", bool: "bool", str: "name"}


def config_keys(cls):
    """{key: (the dataclass-typed field of ``cls`` that holds it, or None
    for a field of ``cls`` itself; its kind)} for every accepted key."""
    keys = {}
    for f in fields(cls):
        if is_dataclass(f.type):
            keys.update((inner.name, (f.name, _TYPE_KINDS[inner.type]))
                        for inner in fields(f.type) if inner.type in _TYPE_KINDS)
        elif f.type in _TYPE_KINDS:
            keys[f.name] = (None, _TYPE_KINDS[f.type])
    return keys


def read_config(path, cls):
    """The ``cls`` instance that the config file at ``path`` sets; the
    fields it does not set keep their defaults."""
    keys = config_keys(cls)
    values = {}  # holder (None for cls) -> {key: value}
    with open_text(path) as fh:
        for number, line in enumerate(fh, start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            where = f"{path}, line {number}"
            key, sep, text = (part.strip() for part in body.partition("="))
            if not sep:
                raise ValueError(f"{where}: expected key=value, got {body!r}")
            if key not in keys:
                raise ValueError(f"{where}: unknown {cls.__name__} key {key!r}")
            holder, kind = keys[key]
            given = values.setdefault(holder, {})
            if key in given:
                raise ValueError(f"{where}: duplicate key {key!r}")
            given[key] = read_field(where, key, kind, text)
    types = {f.name: f.type for f in fields(cls)}
    try:
        return cls(**values.pop(None, {}), **{
            holder: types[holder](**inner) for holder, inner in values.items()
        })
    except ConfigurationError as exc:
        raise ValueError(f"{path}: {exc}") from None
