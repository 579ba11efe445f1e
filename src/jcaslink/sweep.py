"""Grid evaluation over transmit power and antenna-element count, result
table assembly, and deterministic CSV emission.

Evaluation has two stages: terms that depend only on the scenario are
computed once per sweep (by ``linkbudget.link_stage`` and
``performance.performance_stage``), and the grid stage evaluates the whole
grid in one pass, the array gain of each element count first and then one
column per quantity. The grid runs over the sorted axes, so its columns are
in the canonical (n_elements, tx_power) order whatever the axis order. The
table keeps the columns: ``emit_csv`` formats straight from them, and the
per-point records are built on the first read of ``ResultTable.rows``.
"""

import os
from enum import Enum
from functools import cached_property
from math import isfinite
from operator import attrgetter

from . import constants, linkbudget, performance, waveform
from ._version import __version__
from .errors import DomainError
from .linkbudget import LinkResult, Scenario, check_printable, typed_value
from .performance import PerformanceResult
from .records import fields, record

CSV_COLUMNS = (
    "n_elements",
    "tx_power_dbw",
    "comm_snr_db",
    "shannon_rate_bps",
    "qpsk_capped_rate_bps",
    "radar_snr_single_db",
    "radar_snr_integrated_db",
    "range_mse_m2",
    "range_rmse_m",
    "detection_feasible",
    "mode",
)

DEFAULT_POWER_AXIS_DBW = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)
DEFAULT_ELEMENT_AXIS = (1, 2, 4, 8, 16)


class Mode(Enum):
    """Which sensing leg drives the range-error and feasibility outputs.

    ``radar_monostatic`` selects the monostatic budget; every other mode
    uses the bistatic budget (the reference configuration). The label is
    recorded per row so emitted tables are self-describing.
    """

    COMM = "comm"
    RADAR_BISTATIC = "radar_bistatic"
    RADAR_MONOSTATIC = "radar_monostatic"
    ALL = "all"


@record()
class SweepSpec:
    base: Scenario = Scenario()
    power_axis_dbw: tuple[float, ...] = DEFAULT_POWER_AXIS_DBW
    element_axis: tuple[int, ...] = DEFAULT_ELEMENT_AXIS
    mode: Mode = Mode.ALL

    def __post_init__(self):
        for name, kind in (("power_axis_dbw", float), ("element_axis", int)):
            values = getattr(self, name)
            try:
                items = iter(values)
            except TypeError:
                raise DomainError(
                    f"{name} must be a sequence of {kind.__name__} values, not {type(values).__name__}"
                ) from None
            label = f"{name} values"
            axis = tuple([v if type(v) is kind else typed_value(label, kind, v) for v in items])
            if not axis:
                raise DomainError(f"{name} must be non-empty")
            object.__setattr__(self, name, axis)
        for name, kind in (("base", Scenario), ("mode", Mode)):
            typed_value(name, kind, getattr(self, name))
        for p in self.power_axis_dbw:
            if not isfinite(p):
                raise DomainError("power_axis_dbw values must be finite")
        for n in self.element_axis:
            if n < 1:
                raise DomainError("element_axis values must be >= 1")
            check_printable("element_axis values", n)
        if len({format_value(p) for p in self.power_axis_dbw}) != len(self.power_axis_dbw):
            raise DomainError("power_axis_dbw values must be distinct at 9 significant digits")
        if len(set(self.element_axis)) != len(self.element_axis):
            raise DomainError("element_axis values must be distinct")


@record(slots=True)
class SweepRow:
    tx_power_dbw: float
    n_elements: int
    link: LinkResult
    perf: PerformanceResult


@record()
class ResultTable:
    """A sweep's results as columns over the grid of the sorted axes, n-major."""

    elements: tuple[int, ...]
    powers: tuple[float, ...]
    link: dict  # LinkResult field -> column
    perf: dict  # PerformanceResult field -> column
    metadata: dict

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """One SweepRow per point, in column order; built on first read."""
        counts = [n for n in self.elements for _ in self.powers]
        links, perfs = map(LinkResult, *self.link.values()), map(PerformanceResult, *self.perf.values())
        return tuple(map(SweepRow, self.powers * len(self.elements), counts, links, perfs))


# The pinned constants, in the order the CSV metadata lists them.
_CONSTANTS = {
    "speed_of_light": constants.SPEED_OF_LIGHT,
    "boltzmann": constants.BOLTZMANN,
    "mu_earth": constants.MU_EARTH,
    "earth_radius_km": constants.EARTH_RADIUS_KM,
}
_CONSTANTS_METADATA = ";".join(f"{k}={v!r}" for k, v in _CONSTANTS.items())
_TOOL = f"jcaslink {__version__}"

_FINGERPRINT_FIELDS = tuple(sorted(f.name for f in fields(Scenario)))
_fingerprint_values = attrgetter(*_FINGERPRINT_FIELDS)
# The fingerprint's JSON, laid out as json.dumps(..., sort_keys=True) lays it
# out, with a bare %s for each field value, in the order of _FINGERPRINT_FIELDS.
_CONSTANTS_JSON = "{%s}" % ", ".join(f'"{k}": {v!r}' for k, v in sorted(_CONSTANTS.items()))
_FINGERPRINT_JSON = "{%s}" % ", ".join(
    f'"{k}": {v}' for k, v in sorted({**dict.fromkeys(_FINGERPRINT_FIELDS, "%s"), "_constants": _CONSTANTS_JSON}.items())
)


def _json_token(value) -> str:
    """The JSON text json.dumps writes for one scenario field value."""
    if isinstance(value, float):
        return float.__repr__(value)  # finite in a Scenario
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if value is None:
        return "null"
    return '"%s"' % value.value  # an enum member; no value needs a JSON escape


def scenario_fingerprint(s: Scenario) -> str:
    """First 16 hex digits of the SHA-256 of the sorted-key JSON of every
    scenario field plus the pinned constants. ``hashlib`` loads on the first
    call, so ``simulate`` and ``bands``, which never fingerprint, skip it."""
    import hashlib

    blob = _FINGERPRINT_JSON % tuple(map(_json_token, _fingerprint_values(s)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# The (single, integrated) SNR columns of the radar leg that drives each mode's outputs.
_RADAR_SNRS = dict.fromkeys(Mode, ("radar_snr_single_db", "radar_snr_integrated_db"))
_RADAR_SNRS[Mode.RADAR_MONOSTATIC] = ("mono_snr_single_db", "mono_snr_integrated_db")


def _grid_stage(s: Scenario, mode: Mode):
    """Scenario stage: the link and performance stages, once per scenario; returns
    the grid, (elements, powers) -> (link columns, performance columns), n-major."""
    num = waveform.numerology(s.bandwidth_hz, s.n_subcarriers, s.n_cp)
    plan = waveform.partition(s.n_subcarriers, s.n_data, s.n_sense)
    link_grid = linkbudget.link_stage(s, plan, num)
    brms = waveform.sensing_rms_bandwidth(plan, num, s.tone_placement)
    performance_grid = performance.performance_stage(plan, num, brms, s.detection_threshold_db)
    _, post_snr = _RADAR_SNRS[mode]

    def grid(elements, powers) -> tuple[dict, dict]:
        link = link_grid(elements, powers)
        return link, performance_grid(link["comm_snr_db"], link[post_snr])

    return grid


def run_point(s: Scenario, mode: Mode = Mode.ALL) -> tuple[LinkResult, PerformanceResult]:
    """Evaluate one scenario point end to end, as the 1 x 1 grid of run_sweep:
    geometry -> waveform -> link budget -> performance, fully deterministic.
    A ``mode`` that is not a Mode member is a DomainError naming ``mode``."""
    mode = typed_value("mode", Mode, mode)
    link, perf = _grid_stage(s, mode)((s.n_elements,), (s.tx_power_dbw,))
    return next(map(LinkResult, *link.values())), next(map(PerformanceResult, *perf.values()))


def run_sweep(spec: SweepSpec, workers: int = 1) -> ResultTable:
    """Evaluate the full power x elements grid, in one pass over the sorted
    axes, into a ResultTable in (n_elements, tx_power_dbw) order.

    A DomainError names the first failing point in axis order, as if the
    points ran one by one in that order: the scenario stage fails where the
    first point would, and a failed grid runs again as one 1 x 1 grid per
    point, in axis order. ``workers`` is accepted and changes nothing."""
    n, p = spec.element_axis[0], spec.power_axis_dbw[0]
    try:
        grid = _grid_stage(spec.base, spec.mode)
        elements, powers = tuple(sorted(spec.element_axis)), tuple(sorted(spec.power_axis_dbw))
        try:
            link, perf = grid(elements, powers)
        except DomainError:  # attribution pass: the same stages, one point per grid, in axis order
            for n in spec.element_axis:
                for p in spec.power_axis_dbw:
                    grid((n,), (p,))
            raise
    except DomainError as exc:
        raise DomainError(f"grid point (n_elements={n}, tx_power_dbw={p}): {exc}") from None
    metadata = {
        "tool": _TOOL,
        "fingerprint": scenario_fingerprint(spec.base),
        "constants": _CONSTANTS_METADATA,
        "mode": spec.mode.value,
    }
    return ResultTable(elements, powers, link, perf, metadata)


FLOAT_SPEC = ".9g"  # format spec of every float cell and ledger value


def format_value(value) -> str:
    """One CSV cell or ledger value; floats carry 9 significant digits."""
    if isinstance(value, float):
        return f"{value:{FLOAT_SPEC}}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    return "none" if value is None else str(value)


# One CSV row, as bytes: the two axis cells, seven float cells, then "feasible,mode".
_ROW_FORMAT = b"%s,%s," + b",".join([b"%" + FLOAT_SPEC.encode()] * 7) + b",%s\n"
_CSV_HEADER = ",".join(CSV_COLUMNS)
_ROW_TAILS = {mode: {flag: f"{format_value(flag)},{mode.value}".encode() for flag in (True, False)} for mode in Mode}


def emit_csv(table: ResultTable, destination: str | os.PathLike) -> None:
    """Write the table as CSV: '#' metadata lines, a header, one line per
    point, floats at 9 significant digits, as UTF-8 bytes with \\n line
    endings. Re-emission is byte-identical. The body is one bytes %-format
    over the columns interleaved by slice into one list; the seven float
    cells take FLOAT_SPEC, and each axis value goes through format_value
    once. SweepSpec has rejected powers that print alike, so the one error
    is an OSError from writing the file."""
    mode = Mode(table.metadata["mode"])
    link, perf = table.link, table.perf
    single, integrated = _RADAR_SNRS[mode]
    powers = [format_value(p).encode() for p in table.powers]
    elements = [format_value(n).encode() for n in table.elements]
    columns = (
        [cell for cell in elements for _ in powers], powers * len(elements),
        link["comm_snr_db"], perf["shannon_rate_bps"], perf["qpsk_capped_rate_bps"], link[single], link[integrated],
        perf["range_mse_m2"], perf["range_rmse_m"], map(_ROW_TAILS[mode].__getitem__, perf["detection_feasible"]),
    )
    n_rows = len(elements) * len(powers)
    cells = [None] * (len(columns) * n_rows)
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    cells = tuple(cells)  # frees the list before the body is formatted
    body = _ROW_FORMAT * n_rows % cells
    head = "".join([f"# {key}={value}\n" for key, value in table.metadata.items()]) + _CSV_HEADER + "\n"
    try:
        with open(destination, "wb") as out:
            out.write(head.encode())
            out.write(body)
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc
