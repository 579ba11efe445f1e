"""Command-line behavior: reports, overrides, exit codes, band queries."""

import re

import pytest

from cli_matrix import expected_output, problems, read_cases, result
from jcaslink.cli import main
from jcaslink.config import parse_config_file, parse_config_text, parse_overrides
from jcaslink.errors import ConfigError
from test_single_path import fresh_python

CASES = read_cases()

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


def run_case(capsys, case):
    code = main(list(case.argv))
    captured = capsys.readouterr()
    return result(case, ".", code, captured.out.encode(), captured.err.encode())


# Every case of tests/data/cli_cases.txt, in process; tests/cli_matrix.py runs them in fresh interpreters.
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_cli_case(case, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    expected = expected_output(case, lambda name: run_case(capsys, CASES[name]).output)
    assert problems(case, run_case(capsys, case), expected) == []


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
    def test_power_override(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--set", "tx_power_dbw=9")
        assert code == 0
        assert float(report_value(out, "comm_snr_db")) == pytest.approx(29.60, abs=0.05)

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

    def test_config_file_not_utf8_exits_2_without_traceback(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(NOT_UTF8)
        result = fresh_python("-m", "jcaslink.cli", "simulate", "--config", str(config))
        assert result.returncode == 2
        assert result.stdout == ""
        (line,) = result.stderr.splitlines()
        assert line.startswith("error[config]: cannot read config file") and "Traceback" not in result.stderr


class TestSweep:
    def test_default_sweep_writes_45_rows(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--out", str(out_csv))
        assert code == 0
        assert "45 rows" in out
        data_lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        assert len(data_lines) == 46

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

