"""Grid evaluation over transmit power and antenna-element count, result
table assembly, and deterministic CSV emission.

Evaluation has two stages: terms that depend only on the scenario are
computed once per sweep (by ``linkbudget.link_stage`` and
``performance.performance_stage``), and a row evaluates one element count
over the whole power axis, its array gain first and then one loop per layer.
Rows run over the sorted axes, so the table is built in its canonical
(n_elements, tx_power) order whatever the axis order.
"""

import hashlib
import os
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from math import isfinite
from operator import attrgetter

from . import constants, linkbudget, performance, waveform
from ._version import __version__
from .errors import DomainError
from .linkbudget import LinkResult, Scenario, check_printable, typed_value
from .performance import PerformanceResult

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


@dataclass(frozen=True)
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
            axis = tuple(typed_value(f"{name} values", kind, v) for v in items)
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
        for name in ("power_axis_dbw", "element_axis"):
            axis = getattr(self, name)
            if len(set(axis)) != len(axis):
                raise DomainError(f"{name} values must be distinct")


@dataclass(slots=True)
class SweepRow:
    tx_power_dbw: float
    n_elements: int
    link: LinkResult
    perf: PerformanceResult


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[SweepRow, ...]
    metadata: dict


# The pinned constants, in the order the CSV metadata lists them.
_CONSTANTS = {
    "speed_of_light": constants.SPEED_OF_LIGHT,
    "boltzmann": constants.BOLTZMANN,
    "mu_earth": constants.MU_EARTH,
    "earth_radius_km": constants.EARTH_RADIUS_KM,
}
_CONSTANTS_METADATA = ";".join(f"{k}={v!r}" for k, v in _CONSTANTS.items())

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
    scenario field plus the pinned constants."""
    blob = _FINGERPRINT_JSON % tuple(map(_json_token, _fingerprint_values(s)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def radar_snrs(mode: Mode):
    """LinkResult -> (single, integrated) sensing SNR of the mode's radar
    configuration; choose it once per sweep, not per point."""
    if mode is Mode.RADAR_MONOSTATIC:
        return attrgetter("mono_snr_single_db", "mono_snr_integrated_db")
    return attrgetter("radar_snr_single_db", "radar_snr_integrated_db")


_COMM_SNR = attrgetter("comm_snr_db")


def _point_stage(s: Scenario, mode: Mode):
    """Scenario stage: the link and performance stages, once per scenario;
    returns the row, (n_elements, tx_power_dbws) -> [SweepRow]: the array
    gain first, then one loop per layer over the powers it is given."""
    num = waveform.numerology(s.bandwidth_hz, s.n_subcarriers, s.n_cp)
    plan = waveform.partition(s.n_subcarriers, s.n_data, s.n_sense)
    link_row = linkbudget.link_stage(s, plan, num)
    brms = waveform.sensing_rms_bandwidth(plan, num, s.tone_placement)
    performance_row = performance.performance_stage(plan, num, brms, s.detection_threshold_db)
    # the integrated SNR of the radar leg that radar_snrs(mode) reads
    post_snr = attrgetter("mono_snr_integrated_db" if mode is Mode.RADAR_MONOSTATIC else "radar_snr_integrated_db")

    def row(n: int, powers) -> list[SweepRow]:
        links = link_row(n, powers)
        perfs = performance_row(map(_COMM_SNR, links), map(post_snr, links))
        return list(map(SweepRow, powers, repeat(n), links, perfs))

    return row


def run_point(s: Scenario, mode: Mode = Mode.ALL) -> tuple[LinkResult, PerformanceResult]:
    """Evaluate one scenario point end to end, as the 1 x 1 row of run_sweep:
    geometry -> waveform -> link budget -> performance, fully deterministic.
    A ``mode`` that is not a Mode member is a DomainError naming ``mode``."""
    mode = typed_value("mode", Mode, mode)
    (row,) = _point_stage(s, mode)(s.n_elements, (s.tx_power_dbw,))
    return row.link, row.perf


def run_sweep(spec: SweepSpec, workers: int = 1) -> ResultTable:
    """Evaluate the full power x elements grid into a ResultTable sorted by
    (n_elements, tx_power_dbw).

    Rows run one element count at a time over the sorted power axis, so the
    table is built in canonical order and does not depend on axis order.
    A DomainError names the first failing point in axis order, as if the
    points ran one by one in that order: the scenario stage fails where the
    first point would, and an array-gain error fails a row at its first point.
    ``workers`` is accepted and does not change the result."""
    n, p = spec.element_axis[0], spec.power_axis_dbw[0]
    try:
        row = _point_stage(spec.base, spec.mode)
        try:
            powers = sorted(spec.power_axis_dbw)
            rows = [r for n in sorted(spec.element_axis) for r in row(n, powers)]
        except DomainError:  # attribution pass: the same stages, one point per row, in axis order
            for n in spec.element_axis:
                for p in spec.power_axis_dbw:
                    row(n, (p,))
            raise
    except DomainError as exc:
        raise DomainError(f"grid point (n_elements={n}, tx_power_dbw={p}): {exc}") from None
    metadata = {
        "tool": f"jcaslink {__version__}",
        "fingerprint": scenario_fingerprint(spec.base),
        "constants": _CONSTANTS_METADATA,
        "mode": spec.mode.value,
    }
    return ResultTable(rows=tuple(rows), metadata=metadata)


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


# One CSV row: the two axis cells, seven float cells, then "feasible,mode".
_ROW_FORMAT = "%s,%s," + ",".join(["%" + FLOAT_SPEC] * 7) + ",%s"


def emit_csv(table: ResultTable, destination: str | os.PathLike) -> None:
    """Write the table as CSV: '#' metadata lines, a header, one line per
    row, floats at 9 significant digits. Re-emission is byte-identical.
    Each row is one %-format whose seven float cells take FLOAT_SPEC; each
    distinct axis value goes through format_value once."""
    mode = Mode(table.metadata["mode"])
    snrs = radar_snrs(mode)
    elements = {n: format_value(n) for n in {row.n_elements for row in table.rows}}
    powers = {p: format_value(p) for p in {row.tx_power_dbw for row in table.rows}}
    tails = {flag: f"{format_value(flag)},{mode.value}" for flag in (True, False)}
    lines = [f"# {key}={value}" for key, value in table.metadata.items()]
    lines.append(",".join(CSV_COLUMNS))
    for row in table.rows:
        link, perf = row.link, row.perf
        single, integrated = snrs(link)
        lines.append(_ROW_FORMAT % (
            elements[row.n_elements], powers[row.tx_power_dbw], link.comm_snr_db,
            perf.shannon_rate_bps, perf.qpsk_capped_rate_bps, single, integrated,
            perf.range_mse_m2, perf.range_rmse_m, tails[perf.detection_feasible],
        ))
    try:
        with open(destination, "w", encoding="utf-8") as out:
            out.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc
