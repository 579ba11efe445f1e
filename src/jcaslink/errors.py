"""Exception types shared across the simulator; ``no_overflow``, the one guard
every layer uses to reject a product that leaves the float range; and the one
reader of config documents and the band database, ``read_text`` and ``parse_lines``."""

import math


class DomainError(ValueError):
    """An input violates an operation's physical or numerical domain."""


class PartitionOverflowError(DomainError):
    """Requested data + sensing subcarriers exceed the total available."""


class ConfigError(ValueError):
    """A configuration document or override cannot be parsed; the message of
    one from a config file starts with its 1-based ``line N: ``."""


def no_overflow(value: float, name: str) -> float:
    """``value``, or DomainError naming ``name`` when it is infinite."""
    if math.isinf(value):
        raise DomainError(f"{name} overflows the floating-point range")
    return value


def read_text(path, what: str, error: type[ValueError]) -> str:
    """The file's text, read as UTF-8 without a leading byte-order mark; a file
    that cannot be opened or decoded is ``error("cannot read <what> <path>: ...")``."""
    try:
        with open(path, encoding="utf-8-sig") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def parse_lines(text: str, parse, error: type[ValueError], prefix: str = ""):
    """Yield ``parse`` of each line of ``text`` that is neither blank nor a
    ``#`` comment, stripped. Lines end at ``\\n`` only and are numbered from 1;
    a ValueError from ``parse`` is ``error("<prefix>line N: ...")``."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parsed = parse(line)
        except ValueError as exc:
            raise error(f"{prefix}line {lineno}: {exc}") from None
        yield parsed
