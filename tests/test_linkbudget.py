"""Link-budget oracles: path loss, noise, array gain, and the three SNRs."""

import math
from dataclasses import fields, replace

import pytest

from jcaslink.errors import DomainError
from jcaslink.linkbudget import (
    ArrayGainModel,
    Scenario,
    array_gain_db,
    fspl_db,
    link_stage,
    noise_power_dbw,
    radar_terms,
)
from jcaslink.sweep import Mode, radar_snrs, run_point
from jcaslink.waveform import numerology, partition

DB_TOL = 1e-9
# LinkResult -> (single-symbol, integrated) SNR of each sensing leg
BISTATIC = radar_snrs(Mode.RADAR_BISTATIC)
MONOSTATIC = radar_snrs(Mode.RADAR_MONOSTATIC)


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
    @pytest.mark.parametrize(
        "freq,dist,message",
        [(0.0, 1.0, "freq_hz"), (1e9, 0.0, "distance_m"), (-1e9, 1.0, "freq_hz"), (1e9, -1.0, "distance_m")],
    )
    def test_domain_errors(self, freq, dist, message):
        with pytest.raises(DomainError, match=f"^{message} must be > 0$"):
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
        "temp,bw,message", [(0.0, 1e8, "temp_k"), (300.0, 0.0, "bandwidth_hz"), (-10.0, 1e8, "temp_k")]
    )
    def test_domain_errors(self, temp, bw, message):
        with pytest.raises(DomainError, match=f"^{message} must be > 0$"):
            noise_power_dbw(temp, bw)


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
    def test_needs_one_sensing_tone(self, ref):
        with pytest.raises(DomainError, match="^radar budget needs n_sense >= 1$"):
            radar_terms(ref, partition(1024, 800, 0))

    def test_one_sensing_tone_suffices(self, ref):
        terms = radar_terms(ref, partition(1024, 800, 1))
        assert terms.sense_fraction_db == pytest.approx(10.0 * math.log10(1 / 1024), abs=DB_TOL)


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
        single, integrated = BISTATIC(link_stage(ref, ref_plan, ref_num)(1, (9.0,))[0])
        assert single == pytest.approx(-41.22083464461156, abs=0.1)
        assert integrated == pytest.approx(3.1522306686311765, abs=0.1)
        # coherent gain over 27372 symbols
        assert integrated - single == pytest.approx(44.37306531324273, abs=DB_TOL)

    def test_rcs_quadrupling_adds_six_db(self, ref, ref_plan, ref_num):
        _, base = BISTATIC(link_stage(ref, ref_plan, ref_num)(1, (9.0,))[0])
        _, big = BISTATIC(link_stage(replace(ref, rcs_m2=400.0), ref_plan, ref_num)(1, (9.0,))[0])
        assert big - base == pytest.approx(6.0205999132796239, abs=DB_TOL)

    def test_zero_integration_window_rejected(self, ref, ref_plan, ref_num):
        with pytest.raises(DomainError, match="zero symbols"):
            link_stage(replace(ref, t_integration_s=0.0), ref_plan, ref_num)(1, (9.0,))[0]

    def test_db_additivity_in_power(self, ref, ref_plan, ref_num):
        # every SNR output shifts by exactly the transmit-power shift
        row = link_stage(ref, ref_plan, ref_num)
        for delta in (0.5, 3.0, 7.0):
            link, link2 = row(ref.n_elements, (ref.tx_power_dbw,))[0], row(ref.n_elements, (ref.tx_power_dbw + delta,))[0]
            assert link2.comm_snr_db - link.comm_snr_db == pytest.approx(delta, abs=DB_TOL)
            for op in (BISTATIC, MONOSTATIC):
                a = op(link)
                b = op(link2)
                assert b[0] - a[0] == pytest.approx(delta, abs=DB_TOL)
                assert b[1] - a[1] == pytest.approx(delta, abs=DB_TOL)

    def test_strictly_decreasing_in_each_leg(self, ref, ref_plan, ref_num):
        by_target = [
            link_stage(replace(ref, d_sat_target_km=d), ref_plan, ref_num)(1, (9.0,))[0].radar_snr_integrated_db
            for d in (100.0, 300.0, 490.0, 800.0)
        ]
        assert all(a > b for a, b in zip(by_target, by_target[1:]))
        by_rx = [
            link_stage(replace(ref, d_target_rx_km=d), ref_plan, ref_num)(1, (9.0,))[0].radar_snr_integrated_db
            for d in (1.0, 10.0, 50.0, 200.0)
        ]
        assert all(a > b for a, b in zip(by_rx, by_rx[1:]))


class TestMonostaticRadarSnr:
    def test_reference_budget_infeasible_region(self, ref, ref_plan, ref_num):
        single, integrated = MONOSTATIC(link_stage(ref, ref_plan, ref_num)(1, (9.0,))[0])
        assert single == pytest.approx(-85.06475624518185, abs=0.1)
        assert integrated == pytest.approx(-40.69169093193912, abs=0.1)

    def test_matched_gain_geometry_penalty(self, ref, ref_plan, ref_num):
        # receive gain pinned to the transmit array gain so only the
        # R1^2 R2^2 vs R^4 spreading terms differ
        g_tx = array_gain_db(ref.tx_gain_ref_dbi, ref.n_elements, ref.n_elements_ref, ref.array_gain_model)
        matched = replace(ref, rx_gain_sense_dbi=g_tx)
        link = link_stage(matched, ref_plan, ref_num)(1, (9.0,))[0]
        _, bi = BISTATIC(link)
        _, mono = MONOSTATIC(link)
        assert bi - mono == pytest.approx(33.80392160057028, abs=0.01)

    def test_degenerate_geometry_matches_bistatic(self, ref, ref_plan, ref_num):
        g_tx = array_gain_db(ref.tx_gain_ref_dbi, ref.n_elements, ref.n_elements_ref, ref.array_gain_model)
        matched = replace(ref, d_target_rx_km=ref.d_sat_target_km, rx_gain_sense_dbi=g_tx)
        link = link_stage(matched, ref_plan, ref_num)(1, (9.0,))[0]
        bi = BISTATIC(link)
        mono = MONOSTATIC(link)
        assert bi[0] == pytest.approx(mono[0], abs=1e-9)
        assert bi[1] == pytest.approx(mono[1], abs=1e-9)

    def test_infeasible_at_every_swept_power(self, ref, ref_plan, ref_num):
        row = link_stage(ref, ref_plan, ref_num)
        for power in range(1, 10):
            _, integrated = MONOSTATIC(row(ref.n_elements, (float(power),))[0])
            assert integrated < ref.detection_threshold_db
