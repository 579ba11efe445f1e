"""Geometry oracles and invariants: implied altitude, orbital speed, Doppler."""

import math

import pytest

from jcaslink.errors import DomainError
from jcaslink.geometry import doppler_shift, implied_altitude, orbital_speed

EARTH_RADIUS_KM = 6371.0


def slant_range(altitude_km, elevation_deg):
    """Reference forward law: line-of-sight distance (km) to a satellite at
    the given altitude, d = -Re sin(e) + sqrt((Re sin(e))^2 + h^2 + 2 Re h)."""
    re_sin = EARTH_RADIUS_KM * math.sin(math.radians(elevation_deg))
    return -re_sin + math.sqrt(re_sin * re_sin + altitude_km * altitude_km + 2.0 * EARTH_RADIUS_KM * altitude_km)


class TestImpliedAltitude:
    def test_zenith_equals_slant_range(self):
        # at 90 deg elevation the slant range is the altitude itself
        assert implied_altitude(550.0, 90.0) == pytest.approx(550.0, rel=1e-9)

    def test_horizon_closed_form(self):
        # oracle: direct evaluation of sqrt(h^2 + 2 Re h) at h = 550
        expected = math.sqrt(550.0**2 + 2.0 * EARTH_RADIUS_KM * 550.0)
        assert expected == pytest.approx(2703.812123650606, rel=1e-12)
        assert implied_altitude(expected, 0.0) == pytest.approx(550.0, rel=1e-12)

    def test_implied_altitude_inverts_to_500km_at_10deg(self):
        # oracle: numerical inversion of the slant-range law; the implied
        # altitude is a diagnostic, not an asserted orbit
        alt = implied_altitude(500.0, 10.0)
        assert alt == pytest.approx(105.56958118385501, rel=1e-9)
        assert slant_range(alt, 10.0) == pytest.approx(500.0, abs=1e-6)

    def test_strictly_increasing_in_elevation(self):
        elevations = [90.0 * i / 49 for i in range(50)]
        altitudes = [implied_altitude(550.0, e) for e in elevations]
        assert all(a < b for a, b in zip(altitudes, altitudes[1:]))

    def test_never_above_slant_range(self):
        for e in (0.0, 10.0, 45.0, 89.0, 90.0):
            assert implied_altitude(550.0, e) <= 550.0

    # Each check at its boundary, on its own message: slant range 0 and
    # elevation just past 90 deg are out, elevations 0 and 90 in.
    @pytest.mark.parametrize(
        "slant,elevation,message",
        [
            (-1.0, 10.0, "slant_range_km must be > 0"),
            (0.0, 10.0, "slant_range_km must be > 0"),
            (550.0, -0.1, r"elevation_deg must be within \[0, 90\] degrees"),
            (550.0, 90.1, r"elevation_deg must be within \[0, 90\] degrees"),
            (550.0, math.nextafter(90.0, 91.0), r"elevation_deg must be within \[0, 90\] degrees"),
            (1e160, 10.0, "slant_range_km squared overflows the floating-point range"),
        ],
    )
    def test_domain_errors(self, slant, elevation, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            implied_altitude(slant, elevation)


class TestOrbitalSpeed:
    def test_surface_reference(self):
        # oracle: sqrt(3.986004418e14 / 6.371e6)
        assert orbital_speed(0.0) == pytest.approx(7909.792402654085, rel=1e-12)

    def test_at_550km(self):
        # oracle: sqrt(3.986004418e14 / 6.921e6)
        assert orbital_speed(550.0) == pytest.approx(7588.998434594858, rel=1e-12)

    def test_strictly_decreasing_in_altitude(self):
        alts = [0.0, 200.0, 550.0, 1200.0, 2000.0, 35786.0]
        speeds = [orbital_speed(h) for h in alts]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))

    def test_negative_altitude_rejected(self):
        with pytest.raises(DomainError):
            orbital_speed(-1.0)


class TestDopplerShift:
    def test_zero_speed(self):
        assert doppler_shift(4.2e9, 0.0) == 0.0

    def test_leo_downlink_magnitude(self):
        # oracle: 4.2e9 * 7585.2 / 299792458
        assert doppler_shift(4.2e9, 7585.2) == pytest.approx(106266.31574567496, rel=1e-12)

    @pytest.mark.parametrize("speed", [1000.0, 7585.2, 123.456])
    def test_odd_function(self, speed):
        assert doppler_shift(4.2e9, -speed) == -doppler_shift(4.2e9, speed)

    @pytest.mark.parametrize("speed", [1.0, 250.0, 7600.0])
    def test_linear_in_speed(self, speed):
        # doubling the radial speed doubles the shift, bit-exactly
        assert doppler_shift(4.2e9, 2.0 * speed) == 2.0 * doppler_shift(4.2e9, speed)

    def test_nonpositive_carrier_rejected(self):
        with pytest.raises(DomainError):
            doppler_shift(0.0, 100.0)

    @pytest.mark.parametrize("speed", [7600.0, -7600.0])
    def test_overflowing_shift_rejected(self, speed):
        with pytest.raises(DomainError, match=r"^carrier_hz \* radial_speed_mps overflows the floating-point range$"):
            doppler_shift(1e308, speed)

