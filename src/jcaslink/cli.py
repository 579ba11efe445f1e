"""Command-line entry point: single-point evaluation, power/element sweeps,
and band-registry queries.

Exit codes: 0 success, 1 domain error, 2 configuration error.
"""

import argparse
import sys
from enum import Enum

from . import geometry, spectrum
from ._version import __version__
from .config import effective_values, scenario_from_values, sweep_spec_from_values
from .errors import ConfigError, DomainError
from .sweep import Mode, emit_csv, run_point, run_sweep

_GHZ = 1e9


def _fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _print_kv(pairs) -> None:
    for key, value in pairs:
        print(f"{key} = {_fmt_value(value)}")


def _cmd_simulate(args) -> int:
    values = effective_values(args.config, args.set)
    if args.mode is not None:
        values["mode"] = Mode(args.mode)
    scenario = scenario_from_values(values)
    mode = values.get("mode", Mode.ALL)
    link, perf = run_point(scenario, mode)

    print("# effective configuration")
    _print_kv(scenario.field_values().items())
    _print_kv([("mode", mode)])

    doppler_full = geometry.doppler_shift(
        scenario.carrier_hz,
        geometry.orbital_speed(link.implied_altitude_diag_km),
    )
    print("# geometry diagnostics")
    _print_kv(
        [
            ("implied_altitude_diag_km", link.implied_altitude_diag_km),
            ("orbital_speed_mps", geometry.orbital_speed(link.implied_altitude_diag_km)),
            ("doppler_shift_hz", doppler_full),
            ("doppler_applied_hz", 0.0 if scenario.doppler_precompensated else doppler_full),
        ]
    )

    print("# link budget")
    _print_kv(
        [
            ("fspl_comm_db", link.fspl_comm_db),
            ("noise_comm_dbw", link.noise_comm_dbw),
            ("comm_snr_db", link.comm_snr_db),
            ("radar_rx_power_dbw", link.radar_rx_power_dbw),
            ("noise_sense_dbw", link.noise_sense_dbw),
            ("radar_snr_single_db", link.radar_snr_single_db),
            ("integration_gain_db", link.integration_gain_db),
            ("radar_snr_integrated_db", link.radar_snr_integrated_db),
            ("mono_snr_single_db", link.mono_snr_single_db),
            ("mono_snr_integrated_db", link.mono_snr_integrated_db),
        ]
    )

    print("# performance")
    _print_kv(
        [
            ("shannon_rate_bps", perf.shannon_rate_bps),
            ("qpsk_capped_rate_bps", perf.modulation_capped_rate_bps),
            ("delay_variance_s2", perf.delay_variance_s2),
            ("range_mse_m2", perf.range_mse_m2),
            ("range_rmse_m", perf.range_rmse_m),
            ("detection_feasible", perf.detection_feasible),
        ]
    )
    return 0


def _cmd_sweep(args) -> int:
    values = effective_values(args.config, args.set)
    if args.mode is not None:
        values["mode"] = Mode(args.mode)
    spec = sweep_spec_from_values(values)
    table = run_sweep(spec, workers=args.workers)
    emit_csv(table, args.out)

    rates = [row.perf.shannon_rate_bps for row in table.rows]
    rmses = [row.perf.range_rmse_m for row in table.rows]
    print(
        f"wrote {len(table.rows)} rows to {args.out}; "
        f"shannon_rate_bps min={min(rates):.6g} max={max(rates):.6g}; "
        f"range_rmse_m min={min(rmses):.6g} max={max(rmses):.6g}"
    )
    return 0


def _format_range_ghz(record: spectrum.BandRecord) -> str:
    return f"{record.freq_low_hz / _GHZ:g}-{record.freq_high_hz / _GHZ:g} GHz"


def _record_notes(record: spectrum.BandRecord) -> str:
    if record.service is spectrum.ServiceKind.COMMUNICATIONS:
        return record.applications
    return "; ".join(f"{k}={v}" for k, v in record.sensor_bandwidths)


def _cmd_bands(args) -> int:
    query = args.query.strip()
    try:
        freq_ghz = float(query)
    except ValueError:
        return _print_band_letter(query)
    if freq_ghz <= 0:
        raise DomainError("frequency query must be > 0 GHz")
    report = spectrum.check_jcas_pairing(freq_ghz, args.bandwidth_mhz)
    comm = spectrum.lookup_comm_band(freq_ghz)
    if comm is None:
        print("comm band: none")
    else:
        print(f"comm band: {comm.band_letter} {_format_range_ghz(comm)}")
    if report.overlapping_radar_allocations:
        print("radar allocations overlapping carrier:")
        for record in report.overlapping_radar_allocations:
            print(f"  {record.band_letter} {_format_range_ghz(record)}")
    else:
        print("radar allocations overlapping carrier: none")
    print(f"verdict: {report.verdict.value}")
    return 0


def _print_band_letter(query: str) -> int:
    canonical = {letter.lower(): letter for letter in spectrum.BAND_LETTERS}
    letter = canonical.get(query.lower())
    if letter is None:
        raise DomainError(f"unknown band letter {query!r}")
    matches = [r for r in spectrum.default_registry() if r.band_letter == letter]
    for record in matches:
        print(f"{record.service.value} {letter} {_format_range_ghz(record)}  {_record_notes(record)}")
    if not matches:
        print(f"no registry entries for band {letter}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcaslink",
        description="Link-level simulator for a joint communications-and-sensing LEO downlink",
    )
    parser.add_argument("--version", action="version", version=f"jcaslink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mode_choices = [m.value for m in Mode]

    simulate = sub.add_parser("simulate", help="evaluate one scenario point and print the budget ledger")
    simulate.add_argument("--config", help="flat key=value config file")
    simulate.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE", help="override one key (repeatable)"
    )
    simulate.add_argument("--mode", choices=mode_choices, help="sensing leg driving the performance outputs")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="evaluate the power x elements grid and write CSV")
    sweep.add_argument("--config", help="flat key=value config file")
    sweep.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    sweep.add_argument("--out", required=True, help="destination CSV path")
    sweep.add_argument("--mode", choices=mode_choices)
    sweep.add_argument(
        "--workers", type=int, default=1, help="accepted for compatibility; evaluation is serial (result is identical)"
    )
    sweep.set_defaults(func=_cmd_sweep)

    bands = sub.add_parser("bands", help="query the frequency-band registry")
    bands.add_argument("query", help="carrier frequency in GHz, or a band letter")
    bands.add_argument(
        "--bandwidth-mhz", type=float, default=100.0, help="occupied bandwidth for the pairing check"
    )
    bands.set_defaults(func=_cmd_bands)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error[config]: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
