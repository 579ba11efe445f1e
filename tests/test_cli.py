"""Command-line behavior: reports, overrides, exit codes, band queries."""

import io
import math
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from enum import Enum

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from cli_matrix import expected_output, problems, read_cases, result
from jcaslink.cli import main
from jcaslink.config import ALL_PARSERS, parse_config_file, parse_config_text, parse_overrides
from jcaslink.errors import ConfigError, DomainError
from jcaslink.linkbudget import ArrayGainModel
from jcaslink.spectrum import load_registry
from jcaslink.sweep import CSV_COLUMNS, Mode
from jcaslink.waveform import TonePlacement
from test_single_path import config_values, fresh_python

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


def test_band_database_not_utf8_is_a_domain_error(tmp_path):
    database = tmp_path / "bands.txt"
    database.write_bytes(b"communications|C|1|2|\xff\n")
    with pytest.raises(DomainError, match="cannot read band database .*bands.txt: 'utf-8' codec can't decode"):
        load_registry(database)


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


# What the CLI may print as a value besides an int or a finite float.
WORDS = {"true", "false", "none"} | {member.value for kind in (Mode, TonePlacement, ArrayGainModel) for member in kind}
SUMMARY = re.compile(r"wrote (\d+) rows to .+; shannon_rate_bps min=(\S+) max=(\S+); range_rmse_m min=(\S+) max=(\S+)\n")
# Assignments that do not parse for some or every key: no '=', an unknown key, and values of the wrong type.
MALFORMED = st.sampled_from(["no_equals_sign", "bogus_key=1"]) | st.builds(
    "{}={}".format, st.sampled_from(sorted(ALL_PARSERS)), st.sampled_from(["", "x", "1.5", "1,,2", "maybe"])
)


def printable(value: str) -> bool:
    """An int, a finite float, true, false, none or an enum value."""
    if value in WORDS or re.fullmatch(r"-?\d+", value):
        return True
    try:
        return math.isfinite(float(value))
    except ValueError:
        return False


def set_arg(key: str, value) -> str:
    return f"{key}={value.value if isinstance(value, Enum) else repr(value)}"


# Every input a config file or --set reaches ends in exit 0 with finite printed values, or in one error line.
@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(["simulate", "sweep"]),
    values=config_values(),
    dropped=st.sets(st.sampled_from(sorted(ALL_PARSERS))),
    mode=st.none() | st.sampled_from([*(m.value for m in Mode), " radar_monostatic", "bogus"]),
    mode_flag=st.booleans(),
    malformed=st.lists(MALFORMED, max_size=1),
)
def test_every_cli_input_evaluates_or_prints_one_error_line(command, values, dropped, mode, mode_flag, malformed):
    pairs = [set_arg(key, value) for key, value in values.items() if key not in dropped] + malformed
    args = [arg for pair in pairs for arg in ("--set", pair)]
    if mode is not None:
        args += ["--mode", mode] if mode_flag else ["--set", f"mode={mode}"]
    with tempfile.TemporaryDirectory() as directory:
        out_csv = os.path.join(directory, "out.csv")
        argv = [command, *args] + (["--out", out_csv] if command == "sweep" else [])
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        stdout, stderr = stdout.getvalue(), stderr.getvalue()
        csv_lines = None
        if os.path.exists(out_csv):
            with open(out_csv, encoding="utf-8") as f:
                csv_lines = f.read().splitlines()
    assert code in (0, 1, 2)
    if code:
        assert re.fullmatch(rf"error\[{'config' if code == 2 else 'domain'}\]: [^\n]+\n", stderr), stderr
        assert stdout == "" and csv_lines is None
        return
    assert stderr == ""
    if command == "simulate":
        sections = {}
        for line in stdout.splitlines():
            if line.startswith("# "):
                ledger = sections[line[2:]] = {}
            else:
                key, value = line.split(" = ")
                ledger[key] = value
        assert [value for ledger in sections.values() for value in ledger.values() if not printable(value)] == []
        budget = sections["link budget"]
        db_terms = [float(value) for key, value in budget.items() if key.endswith(("_db", "_dbw"))]
    else:
        summary = SUMMARY.fullmatch(stdout)
        assert summary and all(map(printable, summary.groups()))
        body = [line for line in csv_lines if not line.startswith("#")]
        assert body[0] == ",".join(CSV_COLUMNS) and len(body) == 1 + int(summary[1])
        rows = [row.split(",") for row in body[1:]]
        assert [cell for row in rows for cell in row if not printable(cell)] == []
        db_terms = [float(row[k]) for row in rows for k, name in enumerate(CSV_COLUMNS) if name.endswith("_db")]
    # Steer the search toward the overflow and underflow edges of the budget.
    target(max(map(abs, db_terms)), label="max |dB|")
