"""Command-line behavior: reports, overrides, exit codes, band queries."""

import ast
import functools
import io
import math
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from enum import Enum

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

import jcaslink
from cli_matrix import DATA, expected_output, problems, read_cases, result
from jcaslink.cli import main
from jcaslink.config import ALL_PARSERS, effective_values, parse_config_text, sweep_spec_from_values
from jcaslink.errors import ConfigError, DomainError
from jcaslink.linkbudget import ArrayGainModel
from jcaslink.records import asdict
from jcaslink.spectrum import BAND_LETTERS, load_registry
from jcaslink.sweep import CSV_COLUMNS, Mode
from jcaslink.waveform import TonePlacement
from test_single_path import config_values, fresh_python, scenarios

CASES = read_cases()
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
PYPROJECT = os.path.join(os.path.dirname(README), "pyproject.toml")
PACKAGE = os.path.dirname(jcaslink.__file__)  # as the package's code objects spell their file names
API_ONLY_RAISES = os.path.join(DATA, "api_only_raises.txt")

NOT_UTF8 = b"n_sense = 10\n\xff\xfe bad\n"


def run_main(argv: list, out_csv: str | None = None) -> tuple:
    """main(argv) in process: its exit code, stdout, stderr and the CSV at
    out_csv as bytes (None if it wrote none), which is then removed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(list(argv))
    csv_bytes = None
    if out_csv is not None and os.path.exists(out_csv):
        with open(out_csv, "rb") as f:
            csv_bytes = f.read()
        os.remove(out_csv)
    return code, stdout.getvalue(), stderr.getvalue(), csv_bytes


def set_args(assignment: str) -> list:
    """Space-separated key=value pairs as one --set each."""
    return [arg for pair in assignment.split() for arg in ("--set", pair)]


def report_value(out: str, key: str) -> str:
    match = re.search(rf"^{key} = (.+)$", out, re.MULTILINE)
    assert match, f"report line for {key!r} missing"
    return match.group(1)


# Every case of tests/data/cli_cases.txt, in process; tests/cli_matrix.py runs them in fresh interpreters.
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_cli_case(case, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)

    def outcome(case):
        code, stdout, stderr, _ = run_main(case.argv)
        return result(case, ".", code, stdout.encode(), stderr.encode())

    expected = expected_output(case, lambda name: outcome(CASES[name]).output)
    assert problems(case, outcome(case), expected) == []


def raise_sites() -> dict:
    """(module, the raise statement's source with its whitespace collapsed) -> the lines where such a
    raise starts, for every raise in the package."""
    sites = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as f:
                text = f.read()
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Raise):
                    source = " ".join(ast.get_source_segment(text, node).split())
                    sites.setdefault((name[:-3], source), []).append(node.lineno)
    return sites


def api_only_raises() -> dict:
    """(module, raise source) -> reason, from the file's ``module | raise source | reason`` lines."""
    listed = {}
    with open(API_ONLY_RAISES, encoding="utf-8") as f:
        for line in f:
            if line.strip() and not line.startswith("#"):
                module, rest = line.split(" | ", 1)
                source, reason = rest.rsplit(" | ", 1)
                listed[module, source] = reason.strip()
    return listed


@functools.cache
def lines_the_rows_run() -> frozenset:
    """(file name, line) for every line of the package that runs while the table's rows run in process,
    each in a fresh working directory."""
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    cwd, previous = os.getcwd(), sys.gettrace()  # tests/line_coverage.py's tracer, which must go on to trace the later tests
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        sys.settrace(lambda frame, event, arg: local if os.path.dirname(frame.f_code.co_filename) == PACKAGE else None)
        try:
            for case in CASES.values():
                run_main(case.argv)
        finally:
            sys.settrace(previous)
            os.chdir(cwd)
    return frozenset(ran)


RAISE_SITES = raise_sites()


# Every raise in src/jcaslink, one case each, either runs while the table's rows run in process, or is
# listed in tests/data/api_only_raises.txt with the reason no command line reaches it. A listed raise that a
# row reaches fails.
@pytest.mark.parametrize("module, source", RAISE_SITES.keys(), ids=[f"{m}:{s}" for m, s in RAISE_SITES.keys()])
def test_every_raise_is_reached_by_a_row_or_listed_as_api_only(module, source):
    lines, listed = RAISE_SITES[module, source], api_only_raises()
    missed = [line for line in lines if (os.path.join(PACKAGE, f"{module}.py"), line) not in lines_the_rows_run()]
    if (module, source) in listed:
        assert missed == lines, f"{module}.py line {lines[0]}: {source}: a row reaches it, yet api_only_raises.txt lists it"
        assert listed[module, source], f"{module}.py line {lines[0]}: {source}: listed with no reason"
    else:
        assert missed == [], f"{module}.py line {missed[0]}: {source}: no row reaches it, and no reason is listed"


def test_every_api_only_entry_names_a_raise():
    assert sorted(api_only_raises().keys() - RAISE_SITES.keys()) == []


def test_help_carries_the_readme_usage_and_every_mode():
    code, out, err, _ = run_main(["--help"])
    assert (code, err) == (0, "")
    optimized = fresh_python("-OO", "-m", "jcaslink.cli", "--help")  # -OO strips docstrings, not the help text
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (0, out, "")
    with open(README, encoding="utf-8") as f:
        usage = f.read().split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    assert [line for line in usage.splitlines() if line not in out] == []
    *modes, last = [mode.value for mode in Mode]
    assert f"MODE is {', '.join(modes)} or {last}." in " ".join(out.split())


def test_version_matches_pyproject():
    # A regex, not tomllib, which Python 3.10 lacks.
    with open(PYPROJECT, encoding="utf-8") as f:
        (declared,) = re.findall(r'^version = "([^"]+)"$', f.read(), re.MULTILINE)
    assert run_main(["--version"]) == (0, f"jcaslink {declared}\n", "", None)


def test_config_file_not_utf8_is_a_config_error(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(NOT_UTF8)
    with pytest.raises(ConfigError, match="cannot read config file .*bad.cfg: 'utf-8' codec can't decode"):
        effective_values(config, [])


def test_band_database_not_utf8_is_a_domain_error(tmp_path):
    database = tmp_path / "bands.txt"
    database.write_bytes(b"communications|C|1|2|\xff\n")
    with pytest.raises(DomainError, match="cannot read band database .*bands.txt: 'utf-8' codec can't decode"):
        load_registry(database)


def test_config_file_path_may_be_str_or_pathlike(tmp_path):
    config = tmp_path / "ok.cfg"
    config.write_text("# comment\nn_sense = 10\n", encoding="utf-8")
    assert effective_values(config, []) == effective_values(str(config), []) == {"n_sense": 10}


# The config parser rejects an unknown key first; a caller of the API gets the record's TypeError.
@pytest.mark.parametrize("key", ["bogus", "base"])
def test_a_value_key_that_names_no_field_is_rejected(key):
    with pytest.raises(TypeError, match=f"^Scenario\\(\\) got an unexpected keyword argument '{key}'$"):
        sweep_spec_from_values({"n_sense": 10, key: 1})


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
        effective_values(None, [f"{key}={value}"])


class TestSimulate:
    def test_power_override(self):
        code, out, _, _ = run_main(["simulate", "--set", "tx_power_dbw=9"])
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
    def test_extreme_but_representable_input_evaluates(self, assignment):
        code, out, err, _ = run_main(["simulate", *set_args(assignment)])
        assert (code, err) == (0, "")
        assert 0.0 < float(report_value(out, "range_rmse_m")) < float("inf")

    def test_override_precedence_echoed(self, tmp_path):
        config = tmp_path / "point.cfg"
        config.write_text("# reference overrides\ntx_power_dbw = 5\nn_elements = 4\n")
        code, out, _, _ = run_main(["simulate", "--config", str(config)])
        assert code == 0
        assert report_value(out, "tx_power_dbw") == "5"
        assert report_value(out, "n_elements") == "4"

        code, out, _, _ = run_main(["simulate", "--config", str(config), "--set", "tx_power_dbw=7"])
        assert code == 0
        assert report_value(out, "tx_power_dbw") == "7"
        assert report_value(out, "n_elements") == "4"

    @pytest.mark.parametrize("none", ["none", "None", "NONE"])
    def test_set_resets_a_per_leg_gain_to_none(self, tmp_path, none):
        config = tmp_path / "gain.cfg"
        config.write_text("rx_gain_comm_dbi = 30.5\n")
        code, out, _, _ = run_main(["simulate", "--config", str(config), "--set", f"rx_gain_comm_dbi={none}"])
        assert code == 0
        assert report_value(out, "rx_gain_comm_dbi") == "none"
        _, default, _, _ = run_main(["simulate"])
        assert report_value(out, "comm_snr_db") == report_value(default, "comm_snr_db")

    def test_config_error_carries_line_number(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("tx_power_dbw = 5\n\nwhat_is_this = 1\n")
        code, _, err, _ = run_main(["simulate", "--config", str(config)])
        assert code == 2
        assert "line 3" in err

    def test_bad_value_reports_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("n_elements = two\n")
        code, _, err, _ = run_main(["simulate", "--config", str(config)])
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


# The summary line counts the rows and gives the extremes of two columns.
@pytest.mark.parametrize(
    "assignment, rows", [("", 45), ("power_axis_dbw=1,5,9 element_axis=1,4", 6)], ids=["default", "axis_override"]
)
def test_sweep_summary_counts_the_rows(tmp_path, assignment, rows):
    code, out, err, _ = run_main(["sweep", "--out", str(tmp_path / "sweep.csv"), *set_args(assignment)])
    assert (code, err) == (0, "")
    assert SUMMARY.fullmatch(out)[1] == str(rows)


# What the CLI may print as a value besides an int or a finite float.
WORDS = {"true", "false", "none"} | {member.value for kind in (Mode, TonePlacement, ArrayGainModel) for member in kind}
SUMMARY = re.compile(r"wrote (\d+) rows to .+; shannon_rate_bps min=(\S+) max=(\S+); range_rmse_m min=(\S+) max=(\S+)\n")
# Assignments that do not parse for some or every key: no '=', an unknown key, and values of the wrong type.
MALFORMED = st.sampled_from(["no_equals_sign", "bogus_key=1"]) | st.builds(
    "{}={}".format, st.sampled_from(sorted(ALL_PARSERS)), st.sampled_from(["", "x", "1.5", "1,,2", "maybe"])
)
# Words that end a line badly: a malformed --set, an unknown or abbreviated option, or an option with no value.
OPTIONS = ["--sett", "--ou", "--set", "--config", "--mode", "--out", "--workers", "--bandwidth-mhz"]
MALFORMED_WORDS = MALFORMED.map(lambda pair: ["--set", pair]) | st.sampled_from(OPTIONS).map(lambda option: [option])
# bands queries: any float, negative and infinite ones included, band letters in either case, and junk.
LETTERS = sorted({*BAND_LETTERS, *map(str.lower, BAND_LETTERS)})
QUERIES = st.floats().map(repr) | st.sampled_from(LETTERS) | st.text(max_size=3)
# Sweep axes, as --set values: mostly valid, with repeats, zeros, nan and powers that print alike.
POWERS = st.floats(-30.0, 40.0) | st.sampled_from([0.0, math.nan, 1.0000000001, 1.0000000002])
AXES = st.fixed_dictionaries(
    {},
    optional={
        "power_axis_dbw": st.lists(POWERS, min_size=1, max_size=3),
        "element_axis": st.lists(st.integers(0, 4), min_size=1, max_size=3),
    },
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


def check_outcome(command: str, code: int, stdout: str, stderr: str, csv_bytes: bytes | None) -> list:
    """Exit 0 with finite printed values, or one error line; the dB terms of a success."""
    assert code in (0, 1, 2)
    if code:
        assert re.fullmatch(rf"error\[{'config' if code == 2 else 'domain'}\]: [^\n]+\n", stderr), stderr
        assert stdout == "" and csv_bytes is None
        return []
    assert stderr == ""
    if command == "bands":
        assert stdout
        return []
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
        return [float(value) for key, value in budget.items() if key.endswith(("_db", "_dbw"))]
    summary = SUMMARY.fullmatch(stdout)
    assert summary and all(map(printable, summary.groups()))
    body = [line for line in csv_bytes.decode("utf-8").splitlines() if not line.startswith("#")]
    assert body[0] == ",".join(CSV_COLUMNS) and len(body) == 1 + int(summary[1])
    rows = [row.split(",") for row in body[1:]]
    assert [cell for row in rows for cell in row if not printable(cell)] == []
    return [float(row[k]) for row in rows for k, name in enumerate(CSV_COLUMNS) if name.endswith("_db")]


# Every input a config file, --set or the command line reaches ends in exit 0 with finite printed values,
# or in one error line. Each drawn value set runs as both simulate and sweep: with one command drawn per
# example, target() steered the search toward whichever command succeeded first, and a sweep seldom exited 0.
# target() follows the sweep's dB terms only, and in-range scenarios are drawn too: steered by simulate's
# terms as well, or drawn from config_values() alone, the search settled in up to half the runs on inputs
# that only simulate evaluates, and the sweep then exited 0 in under 10 of 100 examples.
# Both commands build one SweepSpec from the same words, so an input that sweep rejects before it evaluates
# a grid point (a domain error that names no grid point) simulate rejects with the same line.
@settings(max_examples=100, deadline=None)
@given(
    bands=st.booleans(),
    values=config_values() | scenarios().map(asdict),
    axes=AXES,
    dropped=st.sets(st.sampled_from(sorted(ALL_PARSERS))),
    mode=st.none() | st.sampled_from([*(m.value for m in Mode), " radar_monostatic", "bogus"]),
    mode_flag=st.booleans(),
    malformed=st.lists(MALFORMED_WORDS, max_size=1),
    query=QUERIES,
    bandwidth=st.none() | st.floats().map(repr) | st.just("x"),
)
def test_every_cli_input_evaluates_or_prints_one_error_line(
    bands, values, axes, dropped, mode, mode_flag, malformed, query, bandwidth
):
    if bands:
        commands = {"bands": [query] + ([] if bandwidth is None else ["--bandwidth-mhz", bandwidth])}
    else:
        pairs = [set_arg(key, value) for key, value in values.items() if key not in dropped]
        pairs += [f"{key}={','.join(map(repr, axis))}" for key, axis in axes.items()]
        args = [arg for pair in pairs for arg in ("--set", pair)]
        if mode is not None:
            args += ["--mode", mode] if mode_flag else ["--set", f"mode={mode}"]
        commands = {"simulate": args, "sweep": args}
    outcomes = {}
    with tempfile.TemporaryDirectory() as directory:
        out_csv = os.path.join(directory, "out.csv")
        for command, args in commands.items():
            argv = [command, *args] + (["--out", out_csv] if command == "sweep" else [])
            argv += [word for words in malformed for word in words]
            outcomes[command] = run_main(argv, out_csv)
            db_terms = check_outcome(command, *outcomes[command])
            # Steer the search toward the overflow and underflow edges of the sweep's budget.
            if command == "sweep" and db_terms:
                target(max(map(abs, db_terms)), label="max |dB|")
    swept = outcomes.get("sweep")
    if swept and swept[0] == 1 and swept[2].startswith("error[domain]: ") and "grid point" not in swept[2]:
        assert outcomes["simulate"][:3] == swept[:3]


# What a config document may hold around its assignments: blank lines, comments, among them comments
# that hold a form feed or a line separator, which end no line, and spacing around the '='.
FILLERS = ("", "  \t", "# comment", "  # n_sense = 0", "# a\fn_sense = 0", "# a\u2028n_sense = 0")
SPACES = ("", " ", "  ", "\t")


# A config document means what the same assignments mean as --set words, in the same order; a line that
# does not parse gives the --set error text after 'line N: ', where N - 1 is the count of '\n' before it.
# Most config_values() draws fail a domain check, so in-range scenarios are drawn too, to compare ledgers.
@settings(max_examples=50, deadline=None)
@given(
    values=config_values() | scenarios().map(asdict),
    malformed=st.none() | MALFORMED,
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    layout=st.randoms(use_true_random=True),
)
def test_a_config_document_means_what_its_assignments_mean_as_set_words(values, malformed, bom, newline, layout):
    pairs = [set_arg(key, value).partition("=")[::2] for key, value in values.items()]
    if malformed is not None:
        pairs.insert(layout.randint(0, len(pairs)), (malformed, None))
    document, set_words, bad_line = "", [], None
    for key, value in pairs:
        document += "".join(line + newline for line in layout.choices(FILLERS, k=layout.randint(0, 2)))
        if value is None:
            bad_line = document.count("\n") + 1
            line, word = layout.choice(SPACES) + key, key
        else:
            spaces = layout.choices(SPACES, k=4)
            line, word = "".join([spaces[0], key, spaces[1], "=", spaces[2], value, spaces[3]]), f"{key}={value}"
        document += line + newline
        set_words += ["--set", word]
    with tempfile.TemporaryDirectory() as directory:
        config, out_csv = os.path.join(directory, "doc.cfg"), os.path.join(directory, "out.csv")
        with open(config, "w", encoding="utf-8-sig" if bom else "utf-8", newline="") as f:
            f.write(document)
        for command in ("simulate", "sweep"):
            out = ["--out", out_csv] if command == "sweep" else []
            by_set = run_main([command, *set_words, *out], out_csv)
            by_config = run_main([command, "--config", config, *out], out_csv)
            if bad_line is not None and by_set[0] == 2:
                by_set = (2, "", by_set[2].replace("error[config]: ", f"error[config]: line {bad_line}: ", 1), None)
            assert by_config == by_set
