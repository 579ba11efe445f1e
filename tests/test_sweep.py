"""Grid evaluation, table assembly, fingerprinting and CSV emission."""

import csv
import hashlib
import json
import tempfile
from collections import Counter
from enum import Enum, EnumMeta
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jcaslink import constants, linkbudget, performance, sweep, waveform
from jcaslink.errors import DomainError
from jcaslink.linkbudget import ArrayGainModel, Scenario
from jcaslink.records import fields, replace
from jcaslink.sweep import (
    CSV_COLUMNS,
    Mode,
    SweepSpec,
    emit_csv,
    format_value,
    run_point,
    run_sweep,
    scenario_fingerprint,
)
from jcaslink.waveform import TonePlacement
from test_single_path import config_values


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

    # A str mode would pass through to the bistatic leg unnoticed, since the
    # monostatic budget is chosen by identity with the Mode member.
    def test_str_mode_named_in_error(self, ref_9dbw):
        with pytest.raises(DomainError, match="^mode must be of type Mode, not str$"):
            run_point(ref_9dbw, "radar_monostatic")

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

    # A point error inside the grid names that point, not the grid's first one:
    # 2915 dBW overflows the delay bound only at 4 elements and -3076 dBW
    # the range error only at 1; an array-gain error names its element count
    # and the first power in axis order, not in sorted order.
    # The error names the first failing point in axis order, also where the
    # sorted grid fails first elsewhere: at (1, -4000) for the reversed
    # axes, and, with uncompensated Doppler, at 4000 dBW, whose ICI penalty
    # overflows in the link budget, before the performance mapping rejects
    # the -inf SNR of -4000 dBW. The grid checks one column at a time, so a
    # 3100 dBi comm gain, whose 3088.7 dB SNR overflows the rate at 1 dBW,
    # fails the grid only after -4000 dBW has failed the earlier delay check.
    # A scenario error fails a one-point grid and run_point alike.
    @pytest.mark.parametrize(
        "powers, elements, point, base",
        [
            ((1.0, -4000.0), (1,), (1, -4000.0), Scenario()),
            ((1.0, 2.0, -4000.0, 3.0), (1, 4), (1, -4000.0), Scenario()),
            ((1.0, 2915.0), (1, 4), (4, 2915.0), Scenario()),
            ((1.0, -3076.0), (4, 1), (1, -3076.0), Scenario()),
            ((1.0, 2.0), (1, 10**400), (10**400, 1.0), Scenario()),
            ((2.0, 1.0), (1, 10**400), (10**400, 2.0), Scenario()),
            ((2915.0, 1.0, -4000.0), (4, 1), (4, 2915.0), Scenario()),
            ((-4000.0, 4000.0), (1,), (1, -4000.0), Scenario(doppler_precompensated=False)),
            ((1.0, -4000.0), (1,), (1, 1.0), Scenario(rx_gain_comm_dbi=3100.0)),
            ((1.0,), (2,), (2, 1.0), Scenario(t_integration_s=0.0)),
            ((1.0,), (1,), (1, 1.0), Scenario(t_integration_s=0.0)),
            ((1.0,), (1,), (1, 1.0), Scenario(n_sense=0)),
        ],
    )
    def test_point_errors_name_their_own_point(self, powers, elements, point, base):
        n, p = point
        with pytest.raises(DomainError) as point_error:
            run_point(replace(base, n_elements=n, tx_power_dbw=p))
        with pytest.raises(DomainError) as sweep_error:
            run_sweep(SweepSpec(base=base, power_axis_dbw=powers, element_axis=elements))
        assert str(sweep_error.value) == f"grid point (n_elements={n}, tx_power_dbw={p}): {point_error.value}"

    def test_empty_axis_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(power_axis_dbw=())

    @pytest.mark.parametrize("axes", [{"power_axis_dbw": (1.0, 2.0, 1.0)}, {"element_axis": (2, 2)}])
    def test_duplicate_axis_values_rejected(self, axes):
        with pytest.raises(DomainError, match="must be distinct"):
            SweepSpec(**axes)

    # What an API caller may build: powers are floats and counts ints that
    # are not bools, by the rule of the Scenario fields, the base a Scenario
    # and the mode a Mode; anything else is a DomainError that names the
    # field, not a "true" cell or a traceback.
    @pytest.mark.parametrize(
        "field,values",
        [
            ("element_axis", (True, 2)),
            ("element_axis", ("2",)),
            ("element_axis", (2.0,)),
            ("power_axis_dbw", ("1",)),
            ("power_axis_dbw", (None,)),
            ("power_axis_dbw", (10**400,)),
            ("power_axis_dbw", 1.0),
            ("element_axis", 4),
            ("mode", "all"),
            ("base", None),
        ],
    )
    def test_wrong_axis_type_named_in_error(self, field, values):
        with pytest.raises(DomainError, match=f"^{field} (values )?must be "):
            SweepSpec(**{field: values})

    def test_power_axis_is_checked_before_element_axis(self):
        with pytest.raises(DomainError, match="^power_axis_dbw values must be of type float, not str$"):
            SweepSpec(element_axis=("y",), power_axis_dbw=("x",))

    # An int too long for Python to print would fail the fingerprint or the
    # grid-point message; it is rejected before evaluation, by field name.
    @pytest.mark.parametrize(
        "field, build",
        [
            ("n_elements", lambda: SweepSpec(base=Scenario(n_elements=10**5000))),
            ("element_axis values", lambda: SweepSpec(element_axis=(10**5000,))),
        ],
    )
    def test_unprintable_counts_named_in_error(self, field, build):
        with pytest.raises(DomainError, match=f"^{field} must be within Python's integer-to-text digit limit$"):
            run_sweep(build())

    def test_int_powers_are_stored_as_floats(self):
        spec = SweepSpec(power_axis_dbw=(3, -7, 0.5))
        assert [(type(p), p) for p in spec.power_axis_dbw] == [(float, 3.0), (float, -7.0), (float, 0.5)]

    # The ICI penalty runs once per SNR column (communications, bistatic,
    # monostatic) when Doppler is not precompensated, and not at all when it is.
    @pytest.mark.parametrize("precompensated,ici_calls", [(True, 0), (False, 3)])
    def test_stages_run_once_per_scenario_and_per_element_count(self, monkeypatch, precompensated, ici_calls):
        calls = Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("array_gain_db", "fspl_db", "ici_effective_snr_db", "noise_power_dbw", "symbols_in"):
            count(linkbudget, name)
        count(waveform, "sensing_rms_bandwidth")
        stage = performance.performance_stage

        def counted_stage(*args):
            calls["performance_stage"] += 1
            grid = stage(*args)

            def counted_grid(*grid_args):
                calls["performance grid"] += 1
                return grid(*grid_args)

            return counted_grid

        monkeypatch.setattr(performance, "performance_stage", counted_stage)
        spec = SweepSpec(
            base=Scenario(doppler_precompensated=precompensated),
            power_axis_dbw=tuple(i / 2.0 for i in range(50)),
            element_axis=tuple(range(1, 41)),
        )
        assert len(run_sweep(spec).rows) == 2000
        assert calls == Counter({  # a Counter reads a missing name as 0 calls
            "array_gain_db": 40,
            "fspl_db": 1,
            "ici_effective_snr_db": ici_calls,
            "sensing_rms_bandwidth": 1,
            "noise_power_dbw": 2,  # communications band and sensing band
            "symbols_in": 1,  # the integration gain's symbol count
            "performance_stage": 1,
            "performance grid": 1,  # one call per sweep, not per element count or point
        })

    # The CSV path keeps the grid as columns: no per-point record is built
    # until a caller reads table.rows, which builds them all once.
    def test_csv_path_builds_no_records_until_rows_is_read(self, monkeypatch, tmp_path):
        built = Counter()

        def counting(record):
            init = record.__init__

            def counted(self, *args, **kwargs):
                built[record.__name__] += 1
                init(self, *args, **kwargs)

            return counted

        for record in (sweep.SweepRow, linkbudget.LinkResult, performance.PerformanceResult):
            monkeypatch.setattr(record, "__init__", counting(record))
        spec = SweepSpec(power_axis_dbw=tuple(i / 2.0 for i in range(50)), element_axis=tuple(range(1, 41)))
        table = run_sweep(spec)
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        emit_csv(table, before)
        assert built == {}
        rows = table.rows
        assert built == {"SweepRow": 2000, "LinkResult": 2000, "PerformanceResult": 2000}
        assert table.rows is rows
        emit_csv(table, after)
        assert after.read_bytes() == before.read_bytes()
        assert built == {"SweepRow": 2000, "LinkResult": 2000, "PerformanceResult": 2000}


PINNED_CONSTANTS = {
    "speed_of_light": constants.SPEED_OF_LIGHT,
    "boltzmann": constants.BOLTZMANN,
    "mu_earth": constants.MU_EARTH,
    "earth_radius_km": constants.EARTH_RADIUS_KM,
}


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

    def test_int_and_float_values_share_a_fingerprint(self):
        assert scenario_fingerprint(Scenario(tx_power_dbw=7)) == scenario_fingerprint(Scenario(tx_power_dbw=7.0))

    # Field values whose JSON text is easy to get wrong: signed zero,
    # subnormals, None per-leg gains, both booleans, every enum member,
    # 400-digit counts, and ints in float fields, as an API caller may pass.
    @settings(max_examples=25, deadline=None)
    @given(values=config_values())
    @example(values={})
    @pytest.mark.parametrize(
        "picked",
        [
            {},
            {"tx_power_dbw": -0.0, "detection_threshold_db": 0.0},
            {"tx_gain_ref_dbi": 5e-324, "carrier_hz": 2.225e-309, "noise_temp_k": 1e-310},
            {"rx_gain_comm_dbi": None, "rx_gain_sense_dbi": -0.0},
            {"rx_gain_comm_dbi": -1e-320, "rx_gain_sense_dbi": None},
            {"doppler_precompensated": True},
            {"doppler_precompensated": False},
            *({"tone_placement": member} for member in TonePlacement),
            *({"array_gain_model": member} for member in ArrayGainModel),
            {"n_subcarriers": 10**400, "n_elements": 10**399 + 1, "n_elements_ref": 10**400 - 1},
            {"tx_power_dbw": 7, "d_target_rx_km": 10**300},
        ],
    )
    def test_equals_sha256_of_sorted_key_json(self, values, picked):
        try:
            s = Scenario(**{**values, **picked})
        except DomainError:
            return
        payload = {f.name: getattr(s, f.name) for f in fields(s)}
        payload = {name: v.value if isinstance(v, Enum) else v for name, v in payload.items()}
        payload["_constants"] = PINNED_CONSTANTS
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        assert scenario_fingerprint(s) == hashlib.sha256(blob).hexdigest()[:16]

    def test_template_is_the_json_dumps_template(self):
        template = {**dict.fromkeys((f.name for f in fields(Scenario)), "%s"), "_constants": PINNED_CONSTANTS}
        assert sweep._FINGERPRINT_JSON == json.dumps(template, sort_keys=True).replace('"%s"', "%s")

    # The template's enum token skips JSON escaping; every value must need none.
    @pytest.mark.parametrize(
        "member", [member for f in fields(Scenario) if isinstance(f.type, EnumMeta) for member in f.type]
    )
    def test_enum_token_is_json_dumps_of_its_value(self, member):
        assert sweep._json_token(member) == json.dumps(member.value)


class TestEmitCsv:
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

    # Element counts are ints and go through format_value like every other
    # cell: 10**10 elements is "10000000000", not the "1e+10" a float format
    # would give. Int powers are stored as floats.
    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(Mode),
        placement=st.sampled_from(TonePlacement),
        precompensated=st.booleans(),
        powers=st.one_of(
            st.lists(st.integers(-30, 40), min_size=1, max_size=4, unique=True),
            st.lists(st.floats(-30.0, 40.0), min_size=1, max_size=4, unique=True),
        ),
        elements=st.lists(st.integers(1, 10**12), min_size=1, max_size=3, unique=True),
    )
    @example(Mode.ALL, TonePlacement.COMB_UNIFORM, True, [3, -7], [1, 10**10])
    @example(Mode.RADAR_MONOSTATIC, TonePlacement.BLOCK_EDGE, False, [0.5, 9], [16])
    @example(  # the benchmark's grid_dense shape, 50 powers x 40 elements
        Mode.ALL, TonePlacement.COMB_UNIFORM, True, [-5.0 + 0.5 * k for k in range(50)], list(range(1, 41))
    )
    def test_bytes_equal_format_value_on_every_cell(self, mode, placement, precompensated, powers, elements):
        base = Scenario(tone_placement=placement, doppler_precompensated=precompensated)
        table = run_sweep(SweepSpec(base, tuple(powers), tuple(elements), mode))
        mono = mode is Mode.RADAR_MONOSTATIC
        lines = [f"# {key}={value}" for key, value in table.metadata.items()]
        lines.append(",".join(CSV_COLUMNS))
        for row in table.rows:
            link, perf = row.link, row.perf
            cells = (
                row.n_elements,
                row.tx_power_dbw,
                link.comm_snr_db,
                perf.shannon_rate_bps,
                perf.qpsk_capped_rate_bps,
                link.mono_snr_single_db if mono else link.radar_snr_single_db,
                link.mono_snr_integrated_db if mono else link.radar_snr_integrated_db,
                perf.range_mse_m2,
                perf.range_rmse_m,
                perf.detection_feasible,
                mode,
            )
            lines.append(",".join(format_value(cell) for cell in cells))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "sweep.csv"
            emit_csv(table, out)
            assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    # SweepSpec rejects them, so no table with two equal power cells reaches emit_csv. The two
    # zeros print apart but are one power, which sorted() would leave in the order given.
    @pytest.mark.parametrize(
        "powers", [(1.0000000001, 1.0000000002), (-0.0, 0.0), (0.0, -0.0)], ids=["nine_digits", "zeros", "zeros_swapped"]
    )
    def test_powers_that_print_alike_raise_before_the_file_is_opened(self, powers):
        with pytest.raises(DomainError, match="^power_axis_dbw values must be distinct at 9 significant digits$"):
            SweepSpec(power_axis_dbw=powers, element_axis=(1,))

    def test_a_lone_negative_zero_power_prints_as_given(self, tmp_path):
        out = tmp_path / "x.csv"
        emit_csv(run_sweep(SweepSpec(power_axis_dbw=(-0.0,), element_axis=(1,))), out)
        assert out.read_bytes().splitlines()[-1].startswith(b"1,-0,")

    def test_unwritable_destination_raises(self, tmp_path):
        table = run_sweep(SweepSpec(power_axis_dbw=(1.0,), element_axis=(1,)))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(table, missing)
