"""Grid evaluation, table assembly, fingerprinting and CSV emission."""

import csv
from dataclasses import replace

import pytest

from jcaslink.errors import DomainError
from jcaslink.linkbudget import Scenario
from jcaslink.sweep import (
    CSV_COLUMNS,
    Mode,
    SweepSpec,
    emit_csv,
    run_point,
    run_sweep,
    scenario_fingerprint,
)


@pytest.fixture
def ref_9dbw():
    return Scenario(tx_power_dbw=9.0)


class TestRunPoint:
    def test_reference_point(self, ref_9dbw):
        link, perf = run_point(ref_9dbw)
        assert link.comm_snr_db == pytest.approx(29.60, abs=0.05)
        assert perf.shannon_rate_bps == pytest.approx(7.18e8, rel=0.01)
        assert link.implied_altitude_diag_km == pytest.approx(105.57, abs=0.01)

    def test_monostatic_mode_infeasible(self, ref_9dbw):
        link, perf = run_point(ref_9dbw, Mode.RADAR_MONOSTATIC)
        assert perf.detection_feasible is False
        # range error now derives from the much weaker monostatic echo
        _, perf_bi = run_point(ref_9dbw, Mode.ALL)
        assert perf.range_mse_m2 > perf_bi.range_mse_m2

    def test_deterministic(self, ref_9dbw):
        first = run_point(ref_9dbw)
        second = run_point(ref_9dbw)
        assert first == second

    def test_integration_identity_exact(self, ref_9dbw):
        link, _ = run_point(ref_9dbw)
        assert link.radar_snr_integrated_db == link.radar_snr_single_db + link.integration_gain_db
        assert link.mono_snr_integrated_db == link.mono_snr_single_db + link.integration_gain_db

    def test_doppler_penalty_lowers_every_leg(self, ref_9dbw):
        clean, perf_clean = run_point(ref_9dbw)
        noisy, perf_noisy = run_point(replace(ref_9dbw, doppler_precompensated=False))
        assert noisy.comm_snr_db < clean.comm_snr_db
        assert noisy.radar_snr_integrated_db < clean.radar_snr_integrated_db
        assert perf_noisy.shannon_rate_bps < perf_clean.shannon_rate_bps
        assert perf_noisy.range_mse_m2 > perf_clean.range_mse_m2


class TestRunSweep:
    def test_default_grid_size_and_order(self):
        table = run_sweep(SweepSpec())
        assert len(table.rows) == 45
        keys = [(r.n_elements, r.tx_power_dbw) for r in table.rows]
        assert keys == sorted(keys)

    def test_rate_strictly_increasing_along_power(self):
        table = run_sweep(SweepSpec())
        for n in (1, 2, 4, 8, 16):
            rates = [r.perf.shannon_rate_bps for r in table.rows if r.n_elements == n]
            assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_rate_strictly_increasing_along_elements(self):
        table = run_sweep(SweepSpec())
        for p in range(1, 10):
            rates = [r.perf.shannon_rate_bps for r in table.rows if r.tx_power_dbw == p]
            assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_mse_strictly_decreasing_along_power(self):
        table = run_sweep(SweepSpec())
        for n in (1, 2, 4, 8, 16):
            mses = [r.perf.range_mse_m2 for r in table.rows if r.n_elements == n]
            assert all(a > b for a, b in zip(mses, mses[1:]))

    def test_single_point_grid_matches_run_point(self, ref_9dbw):
        spec = SweepSpec(base=ref_9dbw, power_axis_dbw=(9.0,), element_axis=(1,))
        table = run_sweep(spec)
        assert len(table.rows) == 1
        link, perf = run_point(ref_9dbw, spec.mode)
        assert table.rows[0].link == link
        assert table.rows[0].perf == perf

    def test_axis_order_does_not_matter(self):
        forward = run_sweep(SweepSpec())
        shuffled = run_sweep(
            SweepSpec(power_axis_dbw=tuple(reversed(range(1, 10))), element_axis=(16, 1, 8, 2, 4))
        )
        assert forward.rows == shuffled.rows

    def test_concurrent_equals_sequential(self):
        sequential = run_sweep(SweepSpec(), workers=1)
        concurrent = run_sweep(SweepSpec(), workers=8)
        assert sequential.rows == concurrent.rows
        assert sequential.metadata == concurrent.metadata

    def test_grid_errors_carry_coordinates(self):
        spec = SweepSpec(base=Scenario(t_integration_s=0.0), power_axis_dbw=(1.0,), element_axis=(2,))
        with pytest.raises(DomainError, match=r"n_elements=2, tx_power_dbw=1"):
            run_sweep(spec)

    def test_empty_axis_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(power_axis_dbw=())

    @pytest.mark.parametrize("axes", [{"power_axis_dbw": (1.0, 2.0, 1.0)}, {"element_axis": (2, 2)}])
    def test_duplicate_axis_values_rejected(self, axes):
        with pytest.raises(DomainError, match="must be distinct"):
            SweepSpec(**axes)

    def test_monostatic_mode_never_feasible(self):
        table = run_sweep(SweepSpec(mode=Mode.RADAR_MONOSTATIC))
        assert all(r.perf.detection_feasible is False for r in table.rows)
        assert all(r.perf.range_mse_m2 > 0 for r in table.rows)


class TestFingerprint:
    def test_stable_for_identical_scenarios(self):
        assert scenario_fingerprint(Scenario()) == scenario_fingerprint(Scenario())

    @pytest.mark.parametrize(
        "change",
        [
            {"tx_power_dbw": 2.0},
            {"rcs_m2": 50.0},
            {"n_elements": 2},
            {"doppler_precompensated": False},
            {"rx_gain_sense_dbi": 30.0},
        ],
    )
    def test_any_field_change_alters_fingerprint(self, change):
        assert scenario_fingerprint(Scenario(**change)) != scenario_fingerprint(Scenario())


class TestEmitCsv:
    def test_line_count_and_header(self, tmp_path):
        table = run_sweep(SweepSpec())
        out = tmp_path / "sweep.csv"
        emit_csv(table, out)
        lines = out.read_text().splitlines()
        data_lines = [line for line in lines if not line.startswith("#")]
        assert len(data_lines) == 46  # header + 45 rows
        assert data_lines[0] == ",".join(CSV_COLUMNS)
        assert all(line.startswith("# ") for line in lines if line.startswith("#"))

    def test_reemission_byte_identical(self, tmp_path):
        table = run_sweep(SweepSpec())
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(table, first)
        emit_csv(table, second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_values(self, tmp_path):
        # 9-significant-digit cells bound the parse-back error at 5e-9 relative
        table = run_sweep(SweepSpec())
        out = tmp_path / "sweep.csv"
        emit_csv(table, out)
        with out.open() as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        assert len(rows) == len(table.rows)
        for parsed, row in zip(rows, table.rows):
            assert int(parsed["n_elements"]) == row.n_elements
            assert float(parsed["tx_power_dbw"]) == pytest.approx(row.tx_power_dbw, rel=5e-9)
            assert float(parsed["comm_snr_db"]) == pytest.approx(row.link.comm_snr_db, rel=5e-9)
            assert float(parsed["shannon_rate_bps"]) == pytest.approx(row.perf.shannon_rate_bps, rel=5e-9)
            assert float(parsed["range_mse_m2"]) == pytest.approx(row.perf.range_mse_m2, rel=5e-9)
            assert parsed["detection_feasible"] in ("true", "false")
            assert parsed["mode"] == "all"

    def test_monostatic_mode_columns_follow_mode(self, tmp_path):
        table = run_sweep(SweepSpec(mode=Mode.RADAR_MONOSTATIC))
        out = tmp_path / "mono.csv"
        emit_csv(table, out)
        with out.open() as handle:
            rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
        for parsed, row in zip(rows, table.rows):
            assert float(parsed["radar_snr_integrated_db"]) == pytest.approx(
                row.link.mono_snr_integrated_db, rel=5e-9
            )
            assert parsed["detection_feasible"] == "false"

    def test_unwritable_destination_raises(self, tmp_path):
        table = run_sweep(SweepSpec(power_axis_dbw=(1.0,), element_axis=(1,)))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(table, missing)
