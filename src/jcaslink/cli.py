"""Command-line entry point. Its help text is HELP, a constant that ``python -OO`` keeps."""

import sys

from . import spectrum
from ._version import __version__
from .config import effective_values, sweep_spec_from_values
from .errors import ConfigError, DomainError
from .linkbudget import user_link_doppler
from .records import asdict
from .sweep import SweepSpec, emit_csv, format_value, run_point, run_sweep

_GHZ = 1e9


def _spec(options: dict) -> SweepSpec:
    """Defaults, then the config file, then each --set in order, then --mode as one last --set."""
    mode = options["--mode"]
    overrides = options["--set"] if mode is None else [*options["--set"], f"mode={mode}"]
    return sweep_spec_from_values(effective_values(options["--config"], overrides))


def _cmd_simulate(options: dict) -> int:
    spec = _spec(options)
    scenario, mode = spec.base, spec.mode
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


def _cmd_sweep(options: dict) -> int:
    spec = _spec(options)
    table = run_sweep(spec, workers=options["--workers"])
    emit_csv(table, options["--out"])

    rates, rmses = table.perf["shannon_rate_bps"], table.perf["range_rmse_m"]
    print(
        f"wrote {len(rates)} rows to {options['--out']}; "
        f"shannon_rate_bps min={min(rates):.6g} max={max(rates):.6g}; "
        f"range_rmse_m min={min(rmses):.6g} max={max(rmses):.6g}"
    )
    return 0


def _format_range_ghz(record: spectrum.BandRecord) -> str:
    return f"{record.freq_low_hz / _GHZ:g}-{record.freq_high_hz / _GHZ:g} GHz"


def _cmd_bands(options: dict) -> int:
    query = options["QUERY"].strip()
    try:
        freq_ghz = float(query)
    except ValueError:
        return _print_band_letter(query)
    report = spectrum.check_jcas_pairing(freq_ghz, options["--bandwidth-mhz"])
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
    for record in spectrum.default_registry():
        if record.band_letter == letter:
            print(f"{record.service.value} {letter} {_format_range_ghz(record)}  {record.notes}")
    return 0


HELP = """Command-line entry point: single-point evaluation, power/element sweeps,
and band-registry queries.

    jcaslink simulate [--config FILE] [--set KEY=VALUE ...] [--mode MODE]
    jcaslink sweep    [--config FILE] [--set KEY=VALUE ...] [--mode MODE] --out FILE [--workers N]
    jcaslink bands    QUERY [--bandwidth-mhz F]

An option takes its value as the next word or after '=', and is never
abbreviated. MODE is comm, radar_bistatic, radar_monostatic or all. QUERY, a
frequency in GHz or a band letter, may begin with '-'. Exit codes: 0 success,
1 domain or output-file error, 2 configuration error."""

_REQUIRED = object()  # the default of an option or positional word that must be given
_INPUTS = {"--config": None, "--set": [], "--mode": None}
# Handler and option defaults: a number sets the value's type, a list collects each value, QUERY is the positional.
COMMANDS = {
    "simulate": (_cmd_simulate, _INPUTS),
    "sweep": (_cmd_sweep, {**_INPUTS, "--out": _REQUIRED, "--workers": 1}),
    "bands": (_cmd_bands, {"QUERY": _REQUIRED, "--bandwidth-mhz": 100.0}),
}


def parse_args(argv: list[str]) -> tuple:
    """The command's handler and its options; ConfigError names the first word that does not parse."""
    if not argv or argv[0] not in COMMANDS:
        raise ConfigError(f"expected a command, one of: {', '.join(COMMANDS)}; got {' '.join(argv[:1])!r}")
    handler, options = COMMANDS[argv[0]]
    options, words = dict(options), iter(argv[1:])
    for word in words:
        name, has_value, raw = word.partition("=") if word.startswith("--") else ("QUERY", "=", word)
        if name not in options or name == "QUERY" and options[name] is not _REQUIRED:
            raise ConfigError(f"unexpected argument {word!r} for {argv[0]}; expected: {', '.join(options)}")
        if not has_value:
            raw = next(words, None)
            if raw is None:
                raise ConfigError(f"option {name!r} expects a value")
        current = options[name]
        if isinstance(current, list):
            raw = [*current, raw]
        elif isinstance(current, (int, float)):
            try:
                raw = type(current)(raw)
            except ValueError as exc:
                raise ConfigError(f"invalid value for {name!r}: {exc}") from None
        options[name] = raw
    missing = [name for name, value in options.items() if value is _REQUIRED]
    if missing:
        raise ConfigError(f"{argv[0]} expects {missing[0]}")
    return handler, options


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if "-h" in argv or "--help" in argv or argv == ["--version"]:
            print(f"jcaslink {__version__}" if argv == ["--version"] else HELP)
            return 0
        handler, options = parse_args(argv)
        return handler(options)
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
    sys.exit(main())  # untraced: runs only as python -m jcaslink.cli, which the tests start in a new process
