"""Grid evaluation over transmit power and antenna-element count, result
table assembly, and deterministic CSV emission.

Evaluation has three stages: terms that depend only on the scenario are
computed once per sweep (the budget terms by ``linkbudget.link_stage``),
the array gain once per element count, and each transmit power adds the
terms that vary with it. The table imposes a canonical (n_elements,
tx_power) sort, so output does not depend on axis order.
"""

import hashlib
import json
from dataclasses import dataclass, fields
from enum import Enum
from math import isfinite
from operator import attrgetter
from pathlib import Path

from . import constants, linkbudget, performance, waveform
from ._version import __version__
from .errors import DomainError
from .linkbudget import LinkResult, Scenario, typed_value
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
# The fingerprint's JSON with a bare %s for each field value, in the order
# of _FINGERPRINT_FIELDS.
_FINGERPRINT_JSON = json.dumps(
    {**dict.fromkeys(_FINGERPRINT_FIELDS, "%s"), "_constants": _CONSTANTS}, sort_keys=True
).replace('"%s"', "%s")


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
    return json.dumps(value.value)  # Scenario holds only these types and enum members


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


def _point_stage(s: Scenario, mode: Mode):
    """Scenario stage: the link stage plus the sensing RMS bandwidth, once per
    scenario; returns the element stage,
    n_elements -> (tx_power_dbw -> (LinkResult, PerformanceResult))."""
    num = waveform.numerology(s.bandwidth_hz, s.n_subcarriers, s.n_cp)
    plan = waveform.partition(s.n_subcarriers, s.n_data, s.n_sense)
    link_stage = linkbudget.link_stage(s, plan, num)
    delay = performance.delay_stage(waveform.sensing_rms_bandwidth(plan, num, s.tone_placement))
    rate = performance.rate_stage(plan, num)
    snrs = radar_snrs(mode)

    def at_elements(n: int):
        link_at = link_stage(n)

        def evaluate(p: float) -> tuple[LinkResult, PerformanceResult]:
            link = link_at(p)
            _, post_snr = snrs(link)
            variance = delay(post_snr)
            mse, rmse = performance.range_mse(variance)
            shannon, capped = rate(link.comm_snr_db)
            feasible = performance.detection_feasible(post_snr, s.detection_threshold_db)
            return link, PerformanceResult(shannon, capped, variance, mse, rmse, feasible)

        return evaluate

    return at_elements


def run_point(s: Scenario, mode: Mode = Mode.ALL) -> tuple[LinkResult, PerformanceResult]:
    """Evaluate one scenario point end to end, as the 1 x 1 grid of run_sweep:
    geometry -> waveform -> link budget -> performance, fully deterministic.
    A ``mode`` that is not a Mode member is a DomainError naming ``mode``."""
    mode = typed_value("mode", Mode, mode)
    return _point_stage(s, mode)(s.n_elements)(s.tx_power_dbw)


def run_sweep(spec: SweepSpec, workers: int = 1) -> ResultTable:
    """Evaluate the full power x elements grid into a sorted ResultTable.

    Points run serially in axis order, so an error names the first failing
    point; the scenario stage fails exactly where the first point would.
    ``workers`` is accepted and does not change the result."""
    rows = []
    n, p = spec.element_axis[0], spec.power_axis_dbw[0]
    try:
        at_elements = _point_stage(spec.base, spec.mode)
        for n in spec.element_axis:
            p = spec.power_axis_dbw[0]  # an array-gain error names the row's first point
            evaluate = at_elements(n)
            for p in spec.power_axis_dbw:
                link, perf = evaluate(p)
                rows.append(SweepRow(p, n, link, perf))
    except DomainError as exc:
        raise DomainError(f"grid point (n_elements={n}, tx_power_dbw={p}): {exc}") from None
    rows.sort(key=lambda r: (r.n_elements, r.tx_power_dbw))

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


def emit_csv(table: ResultTable, destination: str | Path) -> None:
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
