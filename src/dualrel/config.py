"""Flat key=value config files for the generate and train commands.

Blank lines and lines starting with '#' are ignored; every other line must
be key=value with a key belonging to the target config; unknown keys are
rejected. The accepted keys and their types are the scalar (int, float,
bool, str) fields of ``GeneratorConfig``, ``ScheduleConfig`` and
``TrainConfig``; the dataclasses check the values.
"""

import math
from dataclasses import fields

from .datagen import GeneratorConfig, open_text
from .schedules import ScheduleConfig
from .training import TrainConfig

GENERATOR_KEYS, SCHEDULE_KEYS, TRAIN_KEYS = (
    {f.name: f.type for f in fields(cls) if f.type in (int, float, bool, str)}
    for cls in (GeneratorConfig, ScheduleConfig, TrainConfig)
)


def parse_kv_file(path):
    values = {}
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.strip()
            if not body or body.startswith("#"):
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {body!r}")
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = value
    return values


def _coerce(key, value, type_):
    if type_ is bool:
        lowered = value.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(f"key {key!r}: expected a boolean, got {value!r}")
    try:
        result = type_(value)
    except ValueError as exc:
        raise ValueError(f"key {key!r}: {exc}") from None
    if type_ is float and not math.isfinite(result):
        raise ValueError(f"key {key!r}: expected a finite number, got {value!r}")
    return result


def generator_config_from(values):
    kwargs = {}
    for key, value in values.items():
        if key not in GENERATOR_KEYS:
            raise ValueError(f"unknown generator config key {key!r}")
        kwargs[key] = _coerce(key, value, GENERATOR_KEYS[key])
    return GeneratorConfig(**kwargs)


def train_config_from(values):
    schedule_kwargs, train_kwargs = {}, {}
    for key, value in values.items():
        if key in SCHEDULE_KEYS:
            schedule_kwargs[key] = _coerce(key, value, SCHEDULE_KEYS[key])
        elif key in TRAIN_KEYS:
            train_kwargs[key] = _coerce(key, value, TRAIN_KEYS[key])
        else:
            raise ValueError(f"unknown training config key {key!r}")
    return TrainConfig(schedule=ScheduleConfig(**schedule_kwargs), **train_kwargs)
