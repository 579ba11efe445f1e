"""Spherical-Earth orbital geometry: the altitude a slant range implies,
circular-orbit speed and Doppler shift.

All public functions take angles in degrees and distances in km unless the
name says otherwise. Everything is a pure function of its inputs.
"""

import math

from .constants import EARTH_RADIUS_KM, MU_EARTH, SPEED_OF_LIGHT
from .errors import DomainError, no_overflow

_EARTH_RADIUS_SQ = EARTH_RADIUS_KM * EARTH_RADIUS_KM


def implied_altitude(slant_range_km: float, elevation_deg: float) -> float:
    """Altitude (km) whose slant range at the given elevation equals the input.

    Closed-form inverse of the spherical-Earth slant-range law; used as a
    per-link diagnostic when a scenario states distances rather than an orbit.
    """
    if slant_range_km <= 0:
        raise DomainError("slant_range_km must be > 0")
    if not 0.0 <= elevation_deg <= 90.0:
        raise DomainError("elevation_deg must be within [0, 90] degrees")
    slant_sq = no_overflow(slant_range_km * slant_range_km, "slant_range_km squared")
    sin_e = math.sin(math.radians(elevation_deg))
    return -EARTH_RADIUS_KM + math.sqrt(
        _EARTH_RADIUS_SQ
        + slant_sq
        + 2.0 * slant_range_km * EARTH_RADIUS_KM * sin_e
    )


def orbital_speed(altitude_km: float) -> float:
    """Circular-orbit speed in m/s: sqrt(mu / r) with r in metres.

    Accepts altitude 0 (surface-grazing reference orbit); strictly
    decreasing in altitude.
    """
    if altitude_km < 0:
        raise DomainError("altitude_km must be >= 0")
    return math.sqrt(MU_EARTH / ((EARTH_RADIUS_KM + altitude_km) * 1000.0))


def doppler_shift(carrier_hz: float, radial_speed_mps: float) -> float:
    """Signed Doppler shift in Hz: f * v / c (positive for closing motion)."""
    if carrier_hz <= 0:
        raise DomainError("carrier_hz must be > 0")
    return no_overflow(carrier_hz * radial_speed_mps / SPEED_OF_LIGHT, "carrier_hz * radial_speed_mps")

