"""Link-budget oracles: path loss, noise, array gain, and the three SNRs."""

import math
import re
from operator import attrgetter

import pytest

from jcaslink.errors import DomainError
from jcaslink.linkbudget import (
    ArrayGainModel,
    LinkResult,
    Scenario,
    array_gain_db,
    fspl_db,
    ici_effective_snr_db,
    link_stage,
    noise_power_dbw,
)
from jcaslink.records import fields, replace
from jcaslink.sweep import run_point
from jcaslink.waveform import numerology, partition

DB_TOL = 1e-9
# LinkResult -> (single-symbol, integrated) SNR of each sensing leg
BISTATIC = attrgetter("radar_snr_single_db", "radar_snr_integrated_db")
MONOSTATIC = attrgetter("mono_snr_single_db", "mono_snr_integrated_db")


def point(grid, n, p):
    """The LinkResult of the 1 x 1 grid (n, p) of a link_stage grid."""
    (link,) = map(LinkResult, *grid((n,), (p,)).values())
    return link


@pytest.fixture
def ref():
    return Scenario(tx_power_dbw=9.0)


@pytest.fixture
def ref_num(ref):
    return numerology(ref.bandwidth_hz, ref.n_subcarriers, ref.n_cp)


@pytest.fixture
def ref_plan(ref):
    return partition(ref.n_subcarriers, ref.n_data, ref.n_sense)


class TestFspl:
    def test_user_link_oracle(self):
        # hand evaluation: 20 log10(4 pi * 5e5 * 4.2e9 / 299792458)
        assert fspl_db(4.2e9, 5.0e5) == pytest.approx(158.89216911656175, abs=0.01)

    def test_target_receiver_leg_oracle(self):
        # previous value + 20 log10(1e4 / 5e5)
        assert fspl_db(4.2e9, 1.0e4) == pytest.approx(124.91276902984139, abs=0.01)

    @pytest.mark.parametrize("distance", [1.0e4, 5.0e5, 2.0e6])
    def test_distance_doubling_law(self, distance):
        delta = fspl_db(4.2e9, 2.0 * distance) - fspl_db(4.2e9, distance)
        assert delta == pytest.approx(6.0205999132796239, abs=DB_TOL)

    def test_increasing_in_both_arguments(self):
        assert fspl_db(4.2e9, 5.0e5) < fspl_db(8.4e9, 5.0e5)
        assert fspl_db(4.2e9, 5.0e5) < fspl_db(4.2e9, 6.0e5)

    # Each check at its boundary, on its own message: with "<=" read as "<",
    # a zero argument would still raise, but through the underflow check.
    # The product 4 pi d f / c is checked at both ends of the float range.
    @pytest.mark.parametrize(
        "freq,dist,message",
        [
            (0.0, 1.0, "freq_hz must be > 0"),
            (1e9, 0.0, "distance_m must be > 0"),
            (-1e9, 1.0, "freq_hz must be > 0"),
            (1e9, -1.0, "distance_m must be > 0"),
            (1e-300, 1e-300, "4 pi d f / c underflows to 0"),
            (1e308, 5e5, "4 pi d f / c overflows the floating-point range"),
        ],
    )
    def test_domain_errors(self, freq, dist, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            fspl_db(freq, dist)


class TestNoisePower:
    def test_full_band_oracle(self):
        # 10 log10(1.380649e-23 * 300 * 1e8)
        assert noise_power_dbw(300.0, 1e8) == pytest.approx(-123.82795462602104, abs=0.01)

    def test_sensing_band_oracle(self):
        # full-band value + 10 log10(0.21875)
        assert noise_power_dbw(300.0, 2.1875e7) == pytest.approx(-130.42847400907755, abs=0.01)

    def test_bandwidth_decade_law(self):
        delta = noise_power_dbw(300.0, 1e9) - noise_power_dbw(300.0, 1e8)
        assert delta == pytest.approx(10.0, abs=DB_TOL)

    @pytest.mark.parametrize(
        "temp,bw,message",
        [
            (0.0, 1e8, "temp_k must be > 0"),
            (300.0, 0.0, "bandwidth_hz must be > 0"),
            (-10.0, 1e8, "temp_k must be > 0"),
            (1e-300, 1e-300, "k T B underflows to 0"),
            (1e308, 1e308, "k T B overflows the floating-point range"),
        ],
    )
    def test_domain_errors(self, temp, bw, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            noise_power_dbw(temp, bw)


class TestIciPenalty:
    def test_zero_doppler_is_identity(self):
        assert ici_effective_snr_db((25.0,), 0.0, 97656.25, "comm_snr_db")[0] == 25.0

    def test_penalty_reduces_snr(self):
        assert ici_effective_snr_db((25.0,), 10e3, 97656.25, "comm_snr_db")[0] < 25.0

    def test_penalty_grows_with_offset(self):
        a = ici_effective_snr_db((25.0,), 5e3, 97656.25, "comm_snr_db")[0]
        b = ici_effective_snr_db((25.0,), 40e3, 97656.25, "comm_snr_db")[0]
        assert b < a

    def test_interference_floor_at_high_snr(self):
        # once interference dominates, more transmit power stops helping
        hi = ici_effective_snr_db((80.0,), 40e3, 97656.25, "comm_snr_db")[0]
        hi2 = ici_effective_snr_db((100.0,), 40e3, 97656.25, "comm_snr_db")[0]
        assert hi2 - hi < 0.1

    def test_zero_spacing_rejected(self):
        with pytest.raises(DomainError, match="^subcarrier_spacing_hz must be > 0$"):
            ici_effective_snr_db((25.0,), 10e3, 0.0, "comm_snr_db")[0]

    def test_null_offset_is_catastrophic(self):
        # offset of exactly one subcarrier spacing lands on the sinc null;
        # float sin(pi) leaves a ~1e-33 residue, so expect a huge penalty
        assert ici_effective_snr_db((25.0,), 97656.25, 97656.25, "comm_snr_db")[0] < -200.0

    def test_sinr_underflowing_to_zero_names_the_column(self):
        with pytest.raises(DomainError, match="^mono_snr_single_db underflows to 0 under the Doppler ICI penalty$"):
            ici_effective_snr_db((25.0, -5000.0), 10e3, 97656.25, "mono_snr_single_db")

    def test_offset_underflowing_to_zero_is_identity(self):
        # 1e-300 / 1e300 underflows to 0: sinc^2 takes its zero-argument value
        assert ici_effective_snr_db((25.0,), 1e-300, 1e300, "comm_snr_db")[0] == 25.0


class TestArrayGain:
    def test_identity_at_reference(self):
        assert array_gain_db(22.81, 1, 1) == 22.81

    def test_four_elements(self):
        assert array_gain_db(22.81, 4, 1) == pytest.approx(28.830599913279624, abs=0.01)

    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_doubling_law(self, n):
        delta = array_gain_db(22.81, 2 * n, 1) - array_gain_db(22.81, n, 1)
        assert delta == pytest.approx(3.0102999566398120, abs=DB_TOL)

    def test_per_element_power_model(self):
        fixed = array_gain_db(22.81, 4, 1, ArrayGainModel.FIXED_TOTAL_POWER)
        scaled = array_gain_db(22.81, 4, 1, ArrayGainModel.PER_ELEMENT_POWER)
        assert scaled - fixed == pytest.approx(10.0 * math.log10(4.0), abs=DB_TOL)

    def test_zero_counts_rejected(self):
        with pytest.raises(DomainError):
            array_gain_db(22.81, 0, 1)


class TestRadarTerms:
    def test_needs_one_sensing_tone(self, ref, ref_num):
        with pytest.raises(DomainError, match="^radar budget needs n_sense >= 1$"):
            link_stage(ref, partition(1024, 800, 0), ref_num)

    def test_wavelength_overflow_named(self, ref_plan, ref_num):
        # c / 1e-300 Hz is past the largest double, so the wavelength term would be inf
        with pytest.raises(DomainError, match="^c / carrier_hz overflows the floating-point range$"):
            link_stage(Scenario(carrier_hz=1e-300), ref_plan, ref_num)

    def test_target_range_overflow_named(self, ref_plan, ref_num):
        # 1e306 km * 1000 is past the largest double, so 20 log10(R1) would be inf
        with pytest.raises(DomainError, match=r"^d_sat_target_km \* 1000 overflows the floating-point range$"):
            link_stage(Scenario(d_sat_target_km=1e306), ref_plan, ref_num)

    def test_receiver_range_overflow_named(self, ref_plan, ref_num):
        with pytest.raises(DomainError, match=r"^d_target_rx_km \* 1000 overflows the floating-point range$"):
            link_stage(Scenario(d_target_rx_km=1e306), ref_plan, ref_num)

    def test_one_sensing_tone_suffices(self, ref, ref_plan, ref_num):
        one = point(link_stage(ref, partition(1024, 800, 1), ref_num), 1, 9.0)
        full = point(link_stage(ref, ref_plan, ref_num), 1, 9.0)
        assert one.noise_sense_dbw == pytest.approx(noise_power_dbw(ref.noise_temp_k, ref.bandwidth_hz / 1024), abs=DB_TOL)
        # the sense fraction falls from 224/1024 to 1/1024
        assert one.radar_rx_power_dbw - full.radar_rx_power_dbw == pytest.approx(10.0 * math.log10(1 / 224), abs=DB_TOL)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("d_sat_user_km", -5.0),
            ("d_sat_target_km", 0.0),
            ("rcs_m2", 0.0),
            ("noise_temp_k", -1.0),
            ("tx_power_dbw", math.inf),
            ("n_elements", 0),
            ("t_integration_s", -0.1),
            ("elevation_user_deg", 95.0),
        ],
    )
    def test_invalid_field_named_in_error(self, field, value):
        with pytest.raises(DomainError, match=field):
            Scenario(**{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in fields(Scenario) if f.type in (float, float | None)])
    def test_every_float_field_must_be_finite(self, field, value):
        with pytest.raises(DomainError, match=field):
            Scenario(**{field: value})

    # Values a config file cannot give but an API caller can: each is a
    # DomainError that names the field, not a traceback or another scenario.
    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_sense", 224.0),
            ("carrier_hz", "4.2e9"),
            ("tone_placement", "comb_uniform"),
            ("tone_placement", "block_edge"),
            ("array_gain_model", "per_element_power"),
            ("doppler_precompensated", 0),
            ("n_elements", True),
            ("carrier_hz", 10**400),
            ("rx_gain_comm_dbi", "30"),
        ],
    )
    def test_wrong_type_named_in_error(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be "):
            Scenario(**{field: value})

    # An input that fails on two fields names the one the first failing pass meets:
    # types, then ranges, then finiteness and the digit limit, in declaration order.
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n_cp": 10**5000, "tx_power_dbw": math.inf}, "n_cp must be within Python's integer-to-text digit limit"),
            ({"tx_power_dbw": math.inf, "n_elements": 10**5000}, "tx_power_dbw must be finite"),
            ({"carrier_hz": math.nan, "n_cp": 10**5000}, "carrier_hz must be > 0"),
            ({"n_sense": "x", "carrier_hz": "y"}, "carrier_hz must be of type float, not str"),
        ],
    )
    def test_first_failing_field_is_named(self, kwargs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Scenario(**kwargs)

    def test_int_in_float_field_is_stored_as_float(self):
        s = Scenario(tx_power_dbw=7, rx_gain_comm_dbi=-3)
        assert (type(s.tx_power_dbw), s.tx_power_dbw) == (float, 7.0)
        assert (type(s.rx_gain_comm_dbi), s.rx_gain_comm_dbi) == (float, -3.0)

    def test_partition_limit(self):
        with pytest.raises(DomainError):
            Scenario(n_data=900, n_sense=300)

    def test_rx_gain_overrides(self, ref):
        assert ref.comm_rx_gain_dbi == ref.rx_gain_dbi == ref.sense_rx_gain_dbi
        s = replace(ref, rx_gain_sense_dbi=20.0)
        assert s.sense_rx_gain_dbi == 20.0
        assert s.comm_rx_gain_dbi == 32.85


class TestCommSnr:
    def test_reference_budget_at_9dbw(self, ref):
        # hand budget: 9 + 22.81 + 32.85 - 158.89 + 123.83
        assert run_point(ref)[0].comm_snr_db == pytest.approx(29.59578550945929, abs=0.05)

    def test_power_linearity(self, ref):
        low = run_point(replace(ref, tx_power_dbw=1.0))[0].comm_snr_db
        assert run_point(ref)[0].comm_snr_db - low == pytest.approx(8.0, abs=DB_TOL)

    def test_element_scaling(self, ref):
        delta = run_point(replace(ref, n_elements=4))[0].comm_snr_db - run_point(ref)[0].comm_snr_db
        assert delta == pytest.approx(10.0 * math.log10(4.0), abs=DB_TOL)

    def test_strictly_increasing_in_elements(self, ref):
        values = [run_point(replace(ref, n_elements=n))[0].comm_snr_db for n in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_distance(self, ref):
        values = [run_point(replace(ref, d_sat_user_km=d))[0].comm_snr_db for d in (100.0, 300.0, 500.0, 900.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBistaticRadarSnr:
    def test_reference_budget_at_9dbw(self, ref, ref_plan, ref_num):
        single, integrated = BISTATIC(point(link_stage(ref, ref_plan, ref_num), 1, 9.0))
        assert single == pytest.approx(-41.22083464461156, abs=0.1)
        assert integrated == pytest.approx(3.1522306686311765, abs=0.1)
        # coherent gain over 27372 symbols
        assert integrated - single == pytest.approx(44.37306531324273, abs=DB_TOL)

    def test_rcs_quadrupling_adds_six_db(self, ref, ref_plan, ref_num):
        _, base = BISTATIC(point(link_stage(ref, ref_plan, ref_num), 1, 9.0))
        _, big = BISTATIC(point(link_stage(replace(ref, rcs_m2=400.0), ref_plan, ref_num), 1, 9.0))
        assert big - base == pytest.approx(6.0205999132796239, abs=DB_TOL)

    def test_zero_integration_window_rejected(self, ref, ref_plan, ref_num):
        with pytest.raises(DomainError, match="zero symbols"):
            point(link_stage(replace(ref, t_integration_s=0.0), ref_plan, ref_num), 1, 9.0)

    def test_db_additivity_in_power(self, ref, ref_plan, ref_num):
        # every SNR output shifts by exactly the transmit-power shift
        grid = link_stage(ref, ref_plan, ref_num)
        for delta in (0.5, 3.0, 7.0):
            link = point(grid, ref.n_elements, ref.tx_power_dbw)
            link2 = point(grid, ref.n_elements, ref.tx_power_dbw + delta)
            assert link2.comm_snr_db - link.comm_snr_db == pytest.approx(delta, abs=DB_TOL)
            for op in (BISTATIC, MONOSTATIC):
                a = op(link)
                b = op(link2)
                assert b[0] - a[0] == pytest.approx(delta, abs=DB_TOL)
                assert b[1] - a[1] == pytest.approx(delta, abs=DB_TOL)

    def test_strictly_decreasing_in_each_leg(self, ref, ref_plan, ref_num):
        by_target = [
            point(link_stage(replace(ref, d_sat_target_km=d), ref_plan, ref_num), 1, 9.0).radar_snr_integrated_db
            for d in (100.0, 300.0, 490.0, 800.0)
        ]
        assert all(a > b for a, b in zip(by_target, by_target[1:]))
        by_rx = [
            point(link_stage(replace(ref, d_target_rx_km=d), ref_plan, ref_num), 1, 9.0).radar_snr_integrated_db
            for d in (1.0, 10.0, 50.0, 200.0)
        ]
        assert all(a > b for a, b in zip(by_rx, by_rx[1:]))


class TestMonostaticRadarSnr:
    def test_reference_budget_infeasible_region(self, ref, ref_plan, ref_num):
        single, integrated = MONOSTATIC(point(link_stage(ref, ref_plan, ref_num), 1, 9.0))
        assert single == pytest.approx(-85.06475624518185, abs=0.1)
        assert integrated == pytest.approx(-40.69169093193912, abs=0.1)

    def test_matched_gain_geometry_penalty(self, ref, ref_plan, ref_num):
        # receive gain pinned to the transmit array gain so only the
        # R1^2 R2^2 vs R^4 spreading terms differ
        g_tx = array_gain_db(ref.tx_gain_ref_dbi, ref.n_elements, ref.n_elements_ref, ref.array_gain_model)
        matched = replace(ref, rx_gain_sense_dbi=g_tx)
        link = point(link_stage(matched, ref_plan, ref_num), 1, 9.0)
        _, bi = BISTATIC(link)
        _, mono = MONOSTATIC(link)
        assert bi - mono == pytest.approx(33.80392160057028, abs=0.01)

    def test_degenerate_geometry_matches_bistatic(self, ref, ref_plan, ref_num):
        g_tx = array_gain_db(ref.tx_gain_ref_dbi, ref.n_elements, ref.n_elements_ref, ref.array_gain_model)
        matched = replace(ref, d_target_rx_km=ref.d_sat_target_km, rx_gain_sense_dbi=g_tx)
        link = point(link_stage(matched, ref_plan, ref_num), 1, 9.0)
        bi = BISTATIC(link)
        mono = MONOSTATIC(link)
        assert bi[0] == pytest.approx(mono[0], abs=1e-9)
        assert bi[1] == pytest.approx(mono[1], abs=1e-9)

    def test_infeasible_at_every_swept_power(self, ref, ref_plan, ref_num):
        grid = link_stage(ref, ref_plan, ref_num)
        for power in range(1, 10):
            _, integrated = MONOSTATIC(point(grid, ref.n_elements, float(power)))
            assert integrated < ref.detection_threshold_db
