"""One budget path: every run_sweep row is the run_point result at that grid
point, bit for bit, and the public scalar budgets agree with both."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcaslink.errors import DomainError
from jcaslink.linkbudget import (
    ArrayGainModel,
    Scenario,
    bistatic_radar_snr_db,
    bistatic_received_power_dbw,
    comm_snr_db,
    monostatic_radar_snr_db,
)
from jcaslink.sweep import Mode, SweepSpec, run_point, run_sweep
from jcaslink.waveform import TonePlacement, numerology, partition


@st.composite
def scenarios(draw):
    n_subcarriers = draw(st.integers(8, 2048))
    n_sense = draw(st.integers(2, n_subcarriers))
    n_data = draw(st.integers(0, n_subcarriers - n_sense))
    gain = st.floats(0.0, 45.0)
    return Scenario(
        carrier_hz=draw(st.floats(1e9, 3e10)),
        bandwidth_hz=draw(st.floats(1e6, 4e8)),
        n_subcarriers=n_subcarriers,
        n_data=n_data,
        n_sense=n_sense,
        n_cp=draw(st.integers(0, n_subcarriers // 4)),
        tx_gain_ref_dbi=draw(gain),
        rx_gain_dbi=draw(gain),
        n_elements_ref=draw(st.integers(1, 4)),
        d_sat_user_km=draw(st.floats(300.0, 2000.0)),
        d_sat_target_km=draw(st.floats(300.0, 2000.0)),
        d_target_rx_km=draw(st.floats(1.0, 60.0)),
        rcs_m2=draw(st.floats(0.1, 1000.0)),
        t_integration_s=draw(st.floats(0.01, 1.0)),
        noise_temp_k=draw(st.floats(50.0, 1000.0)),
        elevation_user_deg=draw(st.floats(0.0, 90.0)),
        doppler_precompensated=draw(st.booleans()),
        detection_threshold_db=draw(st.floats(0.0, 20.0)),
        tone_placement=draw(st.sampled_from(TonePlacement)),
        array_gain_model=draw(st.sampled_from(ArrayGainModel)),
        rx_gain_comm_dbi=draw(st.none() | gain),
        rx_gain_sense_dbi=draw(st.none() | gain),
    )


@settings(max_examples=150, deadline=None)
@given(
    base=scenarios(),
    mode=st.sampled_from(Mode),
    powers=st.lists(st.floats(-30.0, 40.0), min_size=1, max_size=4, unique=True),
    elements=st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True),
)
def test_sweep_rows_are_run_point_results(base, mode, powers, elements):
    spec = SweepSpec(base=base, power_axis_dbw=tuple(powers), element_axis=tuple(elements), mode=mode)
    table = run_sweep(spec)
    num = numerology(base.bandwidth_hz, base.n_subcarriers, base.n_cp)
    plan = partition(base.n_subcarriers, base.n_data, base.n_sense)
    for row in table.rows:
        s = replace(base, tx_power_dbw=row.tx_power_dbw, n_elements=row.n_elements)
        assert (row.link, row.perf) == run_point(s, mode)
        if base.doppler_precompensated:
            link = row.link
            assert link.comm_snr_db == comm_snr_db(s)
            assert link.radar_rx_power_dbw == bistatic_received_power_dbw(s, plan)
            bistatic = (link.radar_snr_single_db, link.radar_snr_integrated_db)
            assert bistatic == bistatic_radar_snr_db(s, plan, num)
            monostatic = (link.mono_snr_single_db, link.mono_snr_integrated_db)
            assert monostatic == monostatic_radar_snr_db(s, plan, num)


@settings(max_examples=50, deadline=None)
@given(
    base=scenarios(),
    powers=st.lists(st.floats(-30.0, 40.0), min_size=1, max_size=3, unique=True),
    elements=st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True),
    fault=st.sampled_from([{"t_integration_s": 1e-9}, {"n_sense": 0}, {"n_sense": 1}]),
)
def test_scenario_errors_name_the_first_grid_point(base, powers, elements, fault):
    base = replace(base, **fault)
    with pytest.raises(DomainError) as point_error:
        run_point(replace(base, tx_power_dbw=powers[0], n_elements=elements[0]))
    with pytest.raises(DomainError) as sweep_error:
        run_sweep(SweepSpec(base=base, power_axis_dbw=tuple(powers), element_axis=tuple(elements)))
    prefix = f"grid point (n_elements={elements[0]}, tx_power_dbw={powers[0]})"
    assert str(sweep_error.value) == f"{prefix}: {point_error.value}"
