"""One budget path: every run_sweep row is the run_point result at that grid
point, bit for bit, and the public surface offers no second entry point.
Any scenario a config file can reach evaluates or raises DomainError."""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

import jcaslink
from jcaslink import config, errors, geometry, linkbudget, performance, spectrum, sweep
from jcaslink.errors import DomainError
from jcaslink.linkbudget import ArrayGainModel, Scenario
from jcaslink.records import fields, replace
from jcaslink.sweep import Mode, SweepSpec, emit_csv, run_point, run_sweep
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


def with_permutation(values):
    """(list, the same list in an order drawn at random)"""
    return values.flatmap(lambda xs: st.tuples(st.just(tuple(xs)), st.permutations(xs).map(tuple)))


@settings(max_examples=150, deadline=None)
@given(
    base=scenarios(),
    mode=st.sampled_from(Mode),
    powers=with_permutation(st.lists(st.floats(-30.0, 40.0), min_size=1, max_size=4, unique=True)),
    elements=with_permutation(st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True)),
)
# Uncompensated Ka-band Doppler: the ICI penalty moves every SNR by tens of dB.
@example(
    base=Scenario(doppler_precompensated=False, carrier_hz=30e9),
    mode=Mode.ALL,
    powers=((1.0, 9.0), (9.0, 1.0)),
    elements=((1, 16), (16, 1)),
)
@example(base=Scenario(), mode=Mode.COMM, powers=((-0.0, 1.0), (1.0, -0.0)), elements=((1,), (1,)))
def test_sweep_rows_are_run_point_results(base, mode, powers, elements):
    (powers, permuted_powers), (elements, permuted_elements) = powers, elements
    spec = SweepSpec(base=base, power_axis_dbw=tuple(sorted(powers)), element_axis=tuple(sorted(elements)), mode=mode)
    table = run_sweep(spec)
    for row in table.rows:
        s = replace(base, tx_power_dbw=row.tx_power_dbw, n_elements=row.n_elements)
        assert (row.link, row.perf) == run_point(s, mode)
    permuted = run_sweep(replace(spec, power_axis_dbw=permuted_powers, element_axis=permuted_elements))
    assert permuted.rows == table.rows
    assert permuted.powers == table.powers
    # Equal rows can still print apart (-0.0 == 0.0), so the CSV bytes are compared too.
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "sorted.csv"), Path(tmp, "permuted.csv")
        emit_csv(table, first)
        emit_csv(permuted, second)
        assert second.read_bytes() == first.read_bytes()


# A change to the public surface is a reviewed edit of this list.
PUBLIC_NAMES = [
    "ArrayGainModel", "BandRecord", "ConfigError", "DomainError", "LinkResult", "Mode", "OfdmNumerology",
    "PairingReport", "PairingVerdict", "PerformanceResult", "ResultTable", "Scenario", "ServiceKind",
    "SubcarrierPlan", "SweepSpec", "TonePlacement", "__version__", "array_gain_db",
    "check_jcas_pairing", "doppler_shift", "emit_csv", "fspl_db", "implied_altitude",
    "load_registry", "lookup_comm_band", "lookup_radar_allocations", "noise_power_dbw", "numerology",
    "orbital_speed", "partition", "run_point", "run_sweep", "sensing_rms_bandwidth", "symbols_in",
]


def test_public_surface():
    assert sorted(jcaslink.__all__) == PUBLIC_NAMES
    assert all(hasattr(jcaslink, name) for name in PUBLIC_NAMES)


def test_public_names_resolve_through_getattr_star_import_and_dir():
    namespace = {}
    exec("from jcaslink import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(jcaslink, name)
    assert set(PUBLIC_NAMES) <= set(dir(jcaslink))
    with pytest.raises(AttributeError, match="no_such_name"):
        jcaslink.no_such_name


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run the interpreter on args in a new process that imports this jcaslink."""
    env = {**os.environ, "PYTHONPATH": str(Path(jcaslink.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def modules_after(statements: str) -> set:
    """sys.modules after running statements in a fresh interpreter without
    ``site``, whose .pth files may preload what jcaslink should not need."""
    result = fresh_python("-S", "-c", f"{statements}\nimport sys\nprint(*sys.modules)")
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_package_import_loads_no_registry_json_or_pathlib():
    loaded = modules_after("import jcaslink, jcaslink.config")
    assert "jcaslink.sweep" in loaded
    assert loaded.isdisjoint({"json", "pathlib", "jcaslink.spectrum", "dataclasses", "inspect", "hashlib"})
    assert "jcaslink.spectrum" in modules_after("import jcaslink\njcaslink.check_jcas_pairing")
    cli_loaded = modules_after("import jcaslink.cli")
    assert "jcaslink.spectrum" in cli_loaded
    assert cli_loaded.isdisjoint(
        {"dataclasses", "inspect", "importlib.resources", "pathlib", "argparse", "gettext", "re"}
    )
    # The command imports spectrum, but reads the band database only on the first bands query.
    lazy = """import contextlib, io, os, tempfile
from jcaslink import cli, spectrum
out = []
with tempfile.TemporaryDirectory() as directory:
    for argv in (["simulate"], ["sweep", "--out", os.path.join(directory, "x.csv")], ["bands", "C"]):
        with contextlib.redirect_stdout(io.StringIO()):
            out += [cli.main(argv), spectrum.default_registry.cache_info().currsize]
print(*out)"""
    result = fresh_python("-S", "-c", lazy)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "0", "0", "0", "0", "1"]


def test_package_import_compiles_no_source():
    # Every record class shares one binder, so no import execs source text.
    # The import system execs code objects.
    count = """import builtins
calls, real_exec = [], builtins.exec
builtins.exec = lambda source, *rest, **kw: (calls.append(isinstance(source, str)), real_exec(source, *rest, **kw))[1]
import jcaslink, jcaslink.config, jcaslink.cli
print(sum(calls))"""
    result = fresh_python("-S", "-c", count)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0"]


# Second entry points deleted in favour of run_point, the stage functions, effective_values and sweep_spec_from_values
# (link_stage computes the integration gain inline),
# four names deleted in favour of DomainError, dump_registry's own line and link_stage's per-leg gains, and five
# numerology and subcarrier-plan fields that no stage read. A field without a default is no class attribute, so the
# fields are looked up on records that numerology() and partition() return.
DELETED_NAMES = [
    (linkbudget, "comm_snr_db"),
    (linkbudget, "bistatic_radar_snr_db"),
    (linkbudget, "monostatic_radar_snr_db"),
    (linkbudget, "tx_array_gain_db"),
    (linkbudget, "integration_gain_db"),
    (performance, "achievable_rate"),
    (performance, "delay_crlb"),
    (performance, "rate_stage"),
    (performance, "delay_stage"),
    (performance, "range_mse"),
    (performance, "detection_feasible"),
    (performance, "ici_effective_snr_db"),
    (linkbudget, "radar_budget_db"),
    (linkbudget, "RadarTerms"),
    (linkbudget, "radar_terms"),
    (geometry, "slant_range"),
    (sweep, "radar_snrs"),
    (spectrum.BandRecord, "contains_hz"),
    (spectrum.BandRecord, "overlaps_hz"),
    (config, "parse_config_file"),
    (config, "parse_overrides"),
    (config, "scenario_from_values"),
    (errors, "PartitionOverflowError"),
    (spectrum, "format_record"),
    (Scenario, "comm_rx_gain_dbi"),
    (Scenario, "sense_rx_gain_dbi"),
    *((numerology(1e8, 1024, 72), name) for name in ("n_cp_samples", "t_useful_s", "t_cp_s")),
    *((partition(1024, 800, 224), name) for name in ("n_total", "n_unused")),
]


@pytest.mark.parametrize("module,name", DELETED_NAMES)
def test_deleted_entry_point_is_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(jcaslink, name)


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


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
COUNTS = st.integers(1, 4096) | st.integers(1, 10**400)
# The decades where one budget term leaves the float range: physical
# magnitudes of 1e150-1e308 and 1e-308-1e-150 (their squares and products
# overflow or underflow), and dB values of +-3000-4000, where 10^(x/10)
# passes 1.8e308 or underflows to a subnormal or to 0.
EDGE_MAGNITUDES = st.floats(150.0, 308.0).map(lambda e: 10.0**e) | st.floats(-308.0, -150.0).map(lambda e: 10.0**e)
EDGE_DB = st.floats(3000.0, 4000.0) | st.floats(-4000.0, -3000.0)
MAGNITUDE_FIELDS = (
    "carrier_hz", "bandwidth_hz", "d_sat_user_km", "d_sat_target_km", "d_target_rx_km", "rcs_m2",
    "t_integration_s", "noise_temp_k",
)
DB_FIELDS = (
    "tx_power_dbw", "tx_gain_ref_dbi", "rx_gain_dbi", "detection_threshold_db", "rx_gain_comm_dbi",
    "rx_gain_sense_dbi",
)


@st.composite
def config_values(draw):
    """Scenario field values a config file can set, mostly inside the range
    checks. Half the draws set every field: finite floats from subnormal to
    the largest double and counts of up to 400 digits. Independent draws
    over the whole range seldom put one budget term past an edge while the
    rest stay in range, so the other half keep the reference scenario and
    put one magnitude and one dB value in the edge decades, with Doppler
    precompensated or not, so that the ICI penalty meets those edges too."""
    if draw(st.booleans()):
        return {
            draw(st.sampled_from(MAGNITUDE_FIELDS)): draw(EDGE_MAGNITUDES),
            draw(st.sampled_from(DB_FIELDS)): draw(EDGE_DB),
            "doppler_precompensated": draw(st.booleans()),
        }
    n_subcarriers = draw(COUNTS)
    n_sense = draw(st.integers(0, n_subcarriers))
    return dict(
        carrier_hz=draw(POSITIVE),
        bandwidth_hz=draw(POSITIVE),
        n_subcarriers=n_subcarriers,
        n_data=draw(st.integers(0, n_subcarriers - n_sense)),
        n_sense=n_sense,
        n_cp=draw(st.just(0) | COUNTS),
        tx_power_dbw=draw(FINITE),
        tx_gain_ref_dbi=draw(FINITE),
        rx_gain_dbi=draw(FINITE),
        n_elements=draw(COUNTS),
        n_elements_ref=draw(COUNTS),
        d_sat_user_km=draw(POSITIVE),
        d_sat_target_km=draw(POSITIVE),
        d_target_rx_km=draw(POSITIVE),
        rcs_m2=draw(POSITIVE),
        t_integration_s=draw(POSITIVE),
        noise_temp_k=draw(POSITIVE),
        elevation_user_deg=draw(st.floats(0.0, 90.0)),
        elevation_target_deg=draw(st.floats(0.0, 90.0)),
        doppler_precompensated=draw(st.booleans()),
        detection_threshold_db=draw(FINITE),
        tone_placement=draw(st.sampled_from(TonePlacement)),
        array_gain_model=draw(st.sampled_from(ArrayGainModel)),
        rx_gain_comm_dbi=draw(st.none() | FINITE),
        rx_gain_sense_dbi=draw(st.none() | FINITE),
    )


@settings(max_examples=400, deadline=None)
@given(values=config_values(), mode=st.sampled_from(Mode))
@example(values={"bandwidth_hz": 1e200, "tx_power_dbw": -4000.0}, mode=Mode.ALL)  # inf * 0 delay information
@example(values={"tx_power_dbw": -3100.0}, mode=Mode.ALL)  # c^2 * variance overflows
@example(values={"d_sat_user_km": 1e160}, mode=Mode.ALL)  # slant range squared overflows
@example(values={"d_target_rx_km": 1e306}, mode=Mode.RADAR_MONOSTATIC)  # R2 overflows on a leg not reported
@example(  # the bistatic received power overflows on a leg not reported
    values={
        "tx_power_dbw": 2e293,
        "tx_gain_ref_dbi": -1e293,
        "rx_gain_comm_dbi": -1e293,
        "rx_gain_sense_dbi": 1.7976931348623157e308,
    },
    mode=Mode.RADAR_MONOSTATIC,
)
@example(values={"tx_gain_ref_dbi": 1e308, "rx_gain_dbi": -1e308}, mode=Mode.ALL)  # the monostatic sum overflows
@example(values={"tx_gain_ref_dbi": 1e308, "rx_gain_dbi": -1e308, "doppler_precompensated": False}, mode=Mode.ALL)
@example(  # the communications sum overflows
    values={"tx_power_dbw": 1e308, "rx_gain_comm_dbi": 1e308, "rx_gain_sense_dbi": -1e308}, mode=Mode.COMM
)
@example(  # the monostatic SINR underflows to 0 under the ICI penalty, on a leg not reported
    values={"doppler_precompensated": False, "tx_gain_ref_dbi": -5000.0, "rx_gain_dbi": 5000.0}, mode=Mode.ALL
)
@example(  # the bistatic SINR underflows to 0 under the ICI penalty, on a leg not reported
    values={"doppler_precompensated": False, "rx_gain_sense_dbi": -4000.0}, mode=Mode.RADAR_MONOSTATIC
)
def test_config_reachable_scenario_evaluates_or_raises_domain_error(values, mode):
    try:
        link, perf = run_point(Scenario(**values), mode)
    except DomainError:
        return
    assert 0.0 <= link.implied_altitude_diag_km < math.inf
    for name in ("fspl_comm_db", "noise_comm_dbw", "radar_rx_power_dbw", "noise_sense_dbw", "integration_gain_db"):
        assert math.isfinite(getattr(link, name)), f"{name} = {getattr(link, name)!r}"
    for name in (
        "comm_snr_db", "radar_snr_single_db", "radar_snr_integrated_db", "mono_snr_single_db", "mono_snr_integrated_db"
    ):
        assert math.isfinite(getattr(link, name)), f"{name} = {getattr(link, name)!r}"
    # Steer the search toward the overflow and underflow edges of the budget.
    target(max(abs(getattr(link, f.name)) for f in fields(link) if f.name.endswith(("_db", "_dbw"))), label="max |dB|")
    for f in fields(perf):
        value = getattr(perf, f.name)
        if isinstance(value, float):
            assert 0.0 <= value < math.inf, f"{f.name} = {value!r}"
