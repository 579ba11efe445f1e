"""Flat key=value configuration documents and command-line overrides.

A document is one ``key = value`` assignment per line with ``#`` comment
lines; keys mirror the Scenario and SweepSpec field names. Parsing is
total: every document yields a value dict or a ConfigError, line-numbered
for a line that does not parse and ``cannot read config file ...`` for a
file that cannot be read. Omitted keys keep the reference-scenario defaults.
"""

import os
from enum import EnumMeta

from .errors import ConfigError, parse_lines, read_text
from .linkbudget import Scenario
from .records import fields
from .sweep import SweepSpec


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    raise ValueError("expected 'true' or 'false'")


def _parse_optional_float(raw: str) -> float | None:
    return None if raw.lower() == "none" else float(raw)


def _parse_enum(enum_cls):
    members = {member.value: member for member in enum_cls}
    allowed = ", ".join(members)

    def parse(raw: str):
        member = members.get(raw)
        if member is None:
            raise ValueError(f"expected one of: {allowed}")
        return member

    return parse


def _parse_list(kind):
    def parse(raw: str) -> tuple:
        return tuple(kind(item.strip()) for item in raw.split(","))

    return parse


_PARSERS_BY_TYPE = {bool: _parse_bool, int: int, float: float, float | None: _parse_optional_float,
                    tuple[float, ...]: _parse_list(float), tuple[int, ...]: _parse_list(int)}


def _parser(kind):
    return _parse_enum(kind) if isinstance(kind, EnumMeta) else _PARSERS_BY_TYPE[kind]


# One parser per Scenario and SweepSpec field, chosen by the field's annotated type.
SCENARIO_PARSERS = {f.name: _parser(f.type) for f in fields(Scenario)}
SWEEP_PARSERS = {f.name: _parser(f.type) for f in fields(SweepSpec) if f.name != "base"}
ALL_PARSERS = {**SCENARIO_PARSERS, **SWEEP_PARSERS}


def _parse_assignment(text: str) -> tuple[str, object]:
    key, sep, raw = text.partition("=")
    if not sep:
        raise ConfigError(f"expected 'key = value', got {text!r}")
    key, raw = key.strip(), raw.strip()
    parser = ALL_PARSERS.get(key)
    if parser is None:
        raise ConfigError(f"unknown key {key!r}")
    try:
        return key, parser(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {exc}") from None


def parse_config_text(text: str) -> dict:
    """Parse a config document into a key -> typed-value dict; a later assignment wins."""
    return dict(parse_lines(text, _parse_assignment, ConfigError))


def effective_values(config_path: str | os.PathLike | None, overrides: list[str]) -> dict:
    """Merge precedence: overrides, in order, beat config-file values beat defaults."""
    values = {} if config_path is None else parse_config_text(read_text(config_path, "config file", ConfigError))
    values.update(map(_parse_assignment, overrides))
    return values


def sweep_spec_from_values(values: dict) -> SweepSpec:
    """The SweepSpec of a value dict: axis keys go to SweepSpec, every other key to
    its base Scenario, whose constructor rejects a key that names no field."""
    base = Scenario(**{key: value for key, value in values.items() if key not in SWEEP_PARSERS})
    return SweepSpec(base, **{key: value for key, value in values.items() if key in SWEEP_PARSERS})
