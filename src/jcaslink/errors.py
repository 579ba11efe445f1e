"""Exception types shared across the simulator, and ``no_overflow``, the one
guard every layer uses to reject a product that leaves the float range."""

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
