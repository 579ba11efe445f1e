"""Command-line entry point: single-point evaluation, power/element sweeps,
and band-registry queries.

Exit codes: 0 success, 1 domain or output-file error, 2 configuration error.
"""

import argparse
import sys

from . import spectrum
from ._version import __version__
from .config import effective_values, scenario_from_values, sweep_spec_from_values
from .errors import ConfigError, DomainError
from .linkbudget import user_link_doppler
from .records import asdict
from .sweep import Mode, emit_csv, format_value, run_point, run_sweep

_GHZ = 1e9


def _values(args) -> dict:
    """Defaults, then the config file, then each --set in order, then --mode as one last --set."""
    return effective_values(args.config, args.set if args.mode is None else [*args.set, f"mode={args.mode}"])


def _cmd_simulate(args) -> int:
    values = _values(args)
    scenario = scenario_from_values(values)
    mode = values.get("mode", Mode.ALL)
    link, perf = run_point(scenario, mode)

    speed, shift, applied = user_link_doppler(scenario, link.implied_altitude_diag_km)
    geometry = {
        "implied_altitude_diag_km": link.implied_altitude_diag_km,
        "orbital_speed_mps": speed,
        "doppler_shift_hz": shift,
        "doppler_applied_hz": applied,
    }
    sections = {
        "effective configuration": {**asdict(scenario), "mode": mode},
        "geometry diagnostics": geometry,
        "link budget": {k: v for k, v in asdict(link).items() if k not in geometry},
        "performance": asdict(perf),
    }
    for title, ledger in sections.items():
        print(f"# {title}")
        for key, value in ledger.items():
            print(f"{key} = {format_value(value)}")
    return 0


def _cmd_sweep(args) -> int:
    spec = sweep_spec_from_values(_values(args))
    table = run_sweep(spec, workers=args.workers)
    emit_csv(table, args.out)

    rates, rmses = table.perf["shannon_rate_bps"], table.perf["range_rmse_m"]
    print(
        f"wrote {len(rates)} rows to {args.out}; "
        f"shannon_rate_bps min={min(rates):.6g} max={max(rates):.6g}; "
        f"range_rmse_m min={min(rmses):.6g} max={max(rmses):.6g}"
    )
    return 0


def _format_range_ghz(record: spectrum.BandRecord) -> str:
    return f"{record.freq_low_hz / _GHZ:g}-{record.freq_high_hz / _GHZ:g} GHz"


def _cmd_bands(args) -> int:
    query = args.query.strip()
    try:
        freq_ghz = float(query)
    except ValueError:
        return _print_band_letter(query)
    report = spectrum.check_jcas_pairing(freq_ghz, args.bandwidth_mhz)
    comm = report.comm_band
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
        print(f"{record.service.value} {letter} {_format_range_ghz(record)}  {record.notes}")
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

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--config", help="flat key=value config file")
    inputs.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one key (repeatable)")
    modes = ", ".join(m.value for m in Mode)
    inputs.add_argument("--mode", help=f"sensing leg driving the outputs, one of: {modes}; beats --set mode=")

    simulate = sub.add_parser(
        "simulate", parents=[inputs], help="evaluate one scenario point and print the budget ledger"
    )
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", parents=[inputs], help="evaluate the power x elements grid and write CSV")
    sweep.add_argument("--out", required=True, help="destination CSV path")
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
