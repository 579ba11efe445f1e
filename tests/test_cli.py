"""Command-line behavior: reports, overrides, exit codes, band queries."""

import re

import pytest

from jcaslink.cli import main
from jcaslink.config import parse_config_file, parse_config_text, parse_overrides
from jcaslink.errors import ConfigError
from test_single_path import fresh_python

NOT_UTF8 = b"n_sense = 10\n\xff\xfe bad\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def set_args(assignment: str) -> list:
    """Space-separated key=value pairs as one --set each."""
    return [arg for pair in assignment.split() for arg in ("--set", pair)]


def report_value(out: str, key: str) -> str:
    match = re.search(rf"^{key} = (.+)$", out, re.MULTILINE)
    assert match, f"report line for {key!r} missing"
    return match.group(1)


def test_config_file_not_utf8_is_a_config_error(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(NOT_UTF8)
    with pytest.raises(ConfigError, match="cannot read config file .*bad.cfg: 'utf-8' codec can't decode"):
        parse_config_file(config)


def test_config_file_path_may_be_str_or_pathlike(tmp_path):
    config = tmp_path / "ok.cfg"
    config.write_text("# comment\nn_sense = 10\n", encoding="utf-8")
    assert parse_config_file(config) == parse_config_file(str(config)) == {"n_sense": 10}


ENUM_CHOICES = {
    "tone_placement": "comb_uniform, block_edge",
    "array_gain_model": "fixed_total_power, per_element_power",
    "mode": "comm, radar_bistatic, radar_monostatic, all",
}


# An enum value is matched exactly, case included, and a miss lists the values in declaration order.
@pytest.mark.parametrize("value", ["Comm", "nope", ""])
@pytest.mark.parametrize("key", sorted(ENUM_CHOICES))
def test_enum_config_error_lists_the_choices(key, value):
    message = f"invalid value for {key!r}: expected one of: {ENUM_CHOICES[key]}"
    with pytest.raises(ConfigError, match=f"^line 2: {re.escape(message)}$"):
        parse_config_text(f"# enum\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_overrides([f"{key}={value}"])


class TestSimulate:
    def test_defaults_evaluate_reference_point(self, capsys):
        code, out, _ = run_cli(capsys, "simulate")
        assert code == 0
        assert "fspl_comm_db = 158.89" in out
        assert report_value(out, "tx_power_dbw") == "1"

    def test_power_override(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--set", "tx_power_dbw=9")
        assert code == 0
        assert float(report_value(out, "comm_snr_db")) == pytest.approx(29.60, abs=0.05)

    def test_unknown_key_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--set", "bogus_key=1")
        assert code == 2
        assert "bogus_key" in err
        assert err.startswith("error[config]")

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--set", "d_sat_user_km=-5")
        assert code == 1
        assert "d_sat_user_km" in err
        assert err.startswith("error[domain]")

    @pytest.mark.parametrize(
        "assignment",
        [
            "t_integration_s=nan",
            "t_integration_s=inf",
            "carrier_hz=inf",
            "tx_power_dbw=1e308",
            "tx_power_dbw=-4000",
            "carrier_hz=1e308",
            "carrier_hz=1e308 doppler_precompensated=false",
            "carrier_hz=1e-300",
            "noise_temp_k=1e-310",
            "bandwidth_hz=1e-320",
            "d_sat_user_km=1e-300 carrier_hz=1e-20",
            "bandwidth_hz=1e308 t_integration_s=1e308",
            "bandwidth_hz=1e200",
            "bandwidth_hz=1e200 tx_power_dbw=-4000",
            "tx_power_dbw=-3100",
            "d_sat_user_km=1e300",
            "d_sat_user_km=1e160",
            "noise_temp_k=1e308 bandwidth_hz=1e30",
            "carrier_hz=1e308 d_sat_user_km=1e-5 tx_power_dbw=6000",
            "d_sat_target_km=1e306",
            "d_target_rx_km=1e306 mode=radar_monostatic",
            # a radar sum past the float range on the leg the mode does not report
            "mode=radar_monostatic tx_power_dbw=2e293 tx_gain_ref_dbi=-1e293 rx_gain_comm_dbi=-1e293"
            " rx_gain_sense_dbi=1.7976931348623157e308",
            "tx_gain_ref_dbi=1e308 rx_gain_dbi=-1e308",
            "tx_gain_ref_dbi=1e308 rx_gain_dbi=-1e308 doppler_precompensated=false",
            pytest.param("n_elements=" + "9" * 400, id="n_elements=9x400"),
            pytest.param("n_elements_ref=" + "9" * 400, id="n_elements_ref=9x400"),
            pytest.param("n_subcarriers=" + "9" * 400, id="n_subcarriers=9x400"),
            pytest.param(f"n_subcarriers={10**308} n_data={10**308 - 224}", id="n_data=1e308"),
        ],
    )
    def test_nonfinite_or_overflowing_input_exits_1(self, capsys, assignment):
        code, _, err = run_cli(capsys, "simulate", *set_args(assignment))
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error[domain]")

    @pytest.mark.parametrize(
        "assignment",
        [
            "bandwidth_hz=3.4e153",
            "n_subcarriers=1000000000 n_data=0 n_sense=1000000000 t_integration_s=60",
            "carrier_hz=1.7e-300 bandwidth_hz=1e23 tx_power_dbw=-4000 doppler_precompensated=false",
        ],
    )
    def test_extreme_but_representable_input_evaluates(self, capsys, assignment):
        code, out, err = run_cli(capsys, "simulate", *set_args(assignment))
        assert (code, err) == (0, "")
        assert 0.0 < float(report_value(out, "range_rmse_m")) < float("inf")

    def test_override_precedence_echoed(self, capsys, tmp_path):
        config = tmp_path / "point.cfg"
        config.write_text("# reference overrides\ntx_power_dbw = 5\nn_elements = 4\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert report_value(out, "tx_power_dbw") == "5"
        assert report_value(out, "n_elements") == "4"

        code, out, _ = run_cli(
            capsys, "simulate", "--config", str(config), "--set", "tx_power_dbw=7"
        )
        assert code == 0
        assert report_value(out, "tx_power_dbw") == "7"
        assert report_value(out, "n_elements") == "4"

    @pytest.mark.parametrize("none", ["none", "None", "NONE"])
    def test_set_resets_a_per_leg_gain_to_none(self, capsys, tmp_path, none):
        config = tmp_path / "gain.cfg"
        config.write_text("rx_gain_comm_dbi = 30.5\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config), "--set", f"rx_gain_comm_dbi={none}")
        assert code == 0
        assert report_value(out, "rx_gain_comm_dbi") == "none"
        _, default, _ = run_cli(capsys, "simulate")
        assert report_value(out, "comm_snr_db") == report_value(default, "comm_snr_db")

    def test_config_error_carries_line_number(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("tx_power_dbw = 5\n\nwhat_is_this = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert "line 3" in err

    def test_bad_value_reports_line(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n_elements = two\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 2
        assert "line 1" in err and "n_elements" in err

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_config_file_not_utf8_exits_2_without_traceback(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(NOT_UTF8)
        result = fresh_python("-m", "jcaslink.cli", "simulate", "--config", str(config))
        assert result.returncode == 2
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("error[config]: cannot read config file") and "Traceback" not in result.stderr

    def test_doppler_flag_changes_report(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--set", "doppler_precompensated=false")
        assert float(report_value(out, "doppler_applied_hz")) > 0


class TestSweep:
    def test_default_sweep_writes_45_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--out", str(out_csv))
        assert code == 0
        assert "45 rows" in out
        data_lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        assert len(data_lines) == 46

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--out", str(a))[0] == 0
        assert run_cli(capsys, "sweep", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_monostatic_mode_all_infeasible(self, capsys, tmp_path):
        out_csv = tmp_path / "mono.csv"
        code, _, _ = run_cli(capsys, "sweep", "--out", str(out_csv), "--mode", "radar_monostatic")
        assert code == 0
        data_lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        for line in data_lines[1:]:
            assert ",false," in line

    def test_summary_reports_extrema(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        _, out, _ = run_cli(capsys, "sweep", "--out", str(out_csv))
        assert "shannon_rate_bps min=" in out and "max=" in out
        assert "range_rmse_m min=" in out

    def test_axis_override(self, capsys, tmp_path):
        out_csv = tmp_path / "small.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "--out",
            str(out_csv),
            "--set",
            "power_axis_dbw=1,5,9",
            "--set",
            "element_axis=1,4",
        )
        assert code == 0
        assert "6 rows" in out

    def test_powers_that_print_alike_exit_1_without_a_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        argv = set_args("power_axis_dbw=1.0000000001,1.0000000002 element_axis=1")
        code, out, err = run_cli(capsys, "sweep", "--out", str(out_csv), *argv)
        assert (code, out) == (1, "")
        assert err == "error[domain]: power_axis_dbw values must be distinct at 9 significant digits\n"
        assert not out_csv.exists()


class TestBands:
    def test_reference_carrier_query(self, capsys):
        code, out, _ = run_cli(capsys, "bands", "4.2")
        assert code == 0
        assert "C 3.4-7.025 GHz" in out
        assert "radar allocations overlapping carrier: none" in out
        assert "verdict: comm_only" in out

    def test_colocated_query(self, capsys):
        code, out, _ = run_cli(capsys, "bands", "5.41")
        assert code == 0
        assert "verdict: jcas_colocated" in out

    def test_letter_lists_both_x_rows(self, capsys):
        code, out, _ = run_cli(capsys, "bands", "X")
        assert code == 0
        assert "8.55-8.65 GHz" in out
        assert "9.3-9.9 GHz" in out

    def test_letter_case_insensitive(self, capsys):
        code, out, _ = run_cli(capsys, "bands", "ku")
        assert code == 0
        assert "13.25-13.75 GHz" in out

    def test_unknown_letter_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bands", "Z")
        assert code == 1
        assert "Z" in err

    @pytest.mark.parametrize(
        "argv,named",
        [
            (["-3.0"], "carrier_ghz"),
            (["nan"], "carrier_ghz"),
            (["inf"], "carrier_ghz"),
            (["1e999"], "carrier_ghz"),
            (["4.2", "--bandwidth-mhz", "inf"], "bandwidth_mhz"),
            (["4.2", "--bandwidth-mhz", "1e308"], "bandwidth_mhz"),
            (["1e300"], "carrier_ghz"),
        ],
        ids=["negative", "nan", "inf", "1e999", "bandwidth-inf", "bandwidth-1e308", "1e300"],
    )
    def test_nonpositive_frequency_exits_1(self, capsys, argv, named):
        code, _, err = run_cli(capsys, "bands", *argv)
        assert code == 1
        assert len(err.splitlines()) == 1
        assert err.startswith("error[domain]")
        assert named in err
