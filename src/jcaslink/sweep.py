"""Grid evaluation over transmit power and antenna-element count, result
table assembly, and deterministic CSV emission.

Evaluation has two stages: terms that depend only on the scenario are
computed once per sweep, then each (tx_power, n_elements) grid point adds
the terms that vary with it. The table imposes a canonical
(n_elements, tx_power) sort, so output does not depend on axis order.
"""

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from math import isfinite
from pathlib import Path

from . import constants, geometry, linkbudget, performance, waveform
from ._version import __version__
from .errors import DomainError
from .linkbudget import LinkResult, Scenario
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
        if not self.power_axis_dbw:
            raise DomainError("power_axis_dbw must be non-empty")
        if not self.element_axis:
            raise DomainError("element_axis must be non-empty")
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


@dataclass(frozen=True)
class SweepRow:
    tx_power_dbw: float
    n_elements: int
    link: LinkResult
    perf: PerformanceResult


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[SweepRow, ...]
    metadata: dict


def scenario_fingerprint(s: Scenario) -> str:
    """Deterministic digest over every scenario field and pinned constant."""
    payload = {
        name: (value.value if isinstance(value, Enum) else value)
        for name, value in s.field_values().items()
    }
    payload["_constants"] = _pinned_constants()
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _pinned_constants() -> dict:
    return {
        "speed_of_light": constants.SPEED_OF_LIGHT,
        "boltzmann": constants.BOLTZMANN,
        "mu_earth": constants.MU_EARTH,
        "earth_radius_km": constants.EARTH_RADIUS_KM,
    }


def selected_radar_snrs(link: LinkResult, mode: Mode) -> tuple[float, float]:
    """(single, integrated) sensing SNR for the mode's radar configuration."""
    if mode is Mode.RADAR_MONOSTATIC:
        return link.mono_snr_single_db, link.mono_snr_integrated_db
    return link.radar_snr_single_db, link.radar_snr_integrated_db


def _point_stage(s: Scenario, mode: Mode):
    """Scenario stage: evaluate once every term that depends neither on
    transmit power nor on element count, then return the point stage,
    (tx_power_dbw, n_elements) -> (LinkResult, PerformanceResult)."""
    num = waveform.numerology(s.bandwidth_hz, s.n_subcarriers, s.n_cp)
    plan = waveform.partition(s.n_subcarriers, s.n_data, s.n_sense)
    implied_alt_km = geometry.implied_altitude(s.d_sat_user_km, s.elevation_user_deg)
    fspl, noise_comm = linkbudget.comm_terms(s)
    comm_rx_gain, sense_rx_gain = s.comm_rx_gain_dbi, s.sense_rx_gain_dbi
    radar = linkbudget.radar_terms(s, plan)
    gain = linkbudget.integration_gain_db(s.t_integration_s, num)
    rms_bw = waveform.sensing_rms_bandwidth(plan, num, s.tone_placement)
    # Uncompensated Doppler (worst case: full orbital speed at the implied
    # user-link altitude) degrades every leg's SNR by ICI before integration.
    doppler_hz = None if s.doppler_precompensated else geometry.doppler_shift(
        s.carrier_hz, geometry.orbital_speed(implied_alt_km)
    )

    def evaluate(p: float, n: int) -> tuple[LinkResult, PerformanceResult]:
        g_tx = linkbudget.array_gain_db(s.tx_gain_ref_dbi, n, s.n_elements_ref, s.array_gain_model)
        comm_snr = linkbudget.downlink_snr_db(p, g_tx, comm_rx_gain, fspl, noise_comm)
        radar_rx, bi_single = linkbudget.radar_budget_db(p, radar, g_tx, sense_rx_gain, radar.rx_range_db)
        _, mono_single = linkbudget.radar_budget_db(p, radar, g_tx, g_tx, radar.target_range_db)
        if doppler_hz is not None:
            spacing = num.subcarrier_spacing_hz
            comm_snr = performance.ici_effective_snr_db(comm_snr, doppler_hz, spacing)
            bi_single = performance.ici_effective_snr_db(bi_single, doppler_hz, spacing)
            mono_single = performance.ici_effective_snr_db(mono_single, doppler_hz, spacing)

        link = LinkResult(
            fspl, noise_comm, comm_snr, radar_rx, radar.noise_dbw, bi_single, gain,
            bi_single + gain, mono_single, mono_single + gain, implied_alt_km,
        )
        _, post_snr = selected_radar_snrs(link, mode)
        variance = performance.delay_crlb(post_snr, rms_bw)
        mse, rmse = performance.range_mse(variance)
        shannon, capped = performance.achievable_rate(comm_snr, plan, num)
        feasible = performance.detection_feasible(post_snr, s.detection_threshold_db)
        return link, PerformanceResult(shannon, capped, variance, mse, rmse, feasible)

    return evaluate


def run_point(s: Scenario, mode: Mode = Mode.ALL) -> tuple[LinkResult, PerformanceResult]:
    """Evaluate one scenario point end to end, as the 1 x 1 grid of run_sweep:
    geometry -> waveform -> link budget -> performance, fully deterministic."""
    return _point_stage(s, mode)(s.tx_power_dbw, s.n_elements)


def run_sweep(spec: SweepSpec, workers: int = 1) -> ResultTable:
    """Evaluate the full power x elements grid into a sorted ResultTable.

    Points run serially in axis order, so an error names the first failing
    point; the scenario stage fails exactly where the first point would.
    ``workers`` is accepted and does not change the result."""
    rows = []
    n, p = spec.element_axis[0], spec.power_axis_dbw[0]
    try:
        evaluate = _point_stage(spec.base, spec.mode)
        for n in spec.element_axis:
            for p in spec.power_axis_dbw:
                link, perf = evaluate(p, n)
                rows.append(SweepRow(tx_power_dbw=p, n_elements=n, link=link, perf=perf))
    except DomainError as exc:
        raise DomainError(f"grid point (n_elements={n}, tx_power_dbw={p}): {exc}") from None
    rows.sort(key=lambda r: (r.n_elements, r.tx_power_dbw))

    metadata = {
        "tool": f"jcaslink {__version__}",
        "fingerprint": scenario_fingerprint(spec.base),
        "constants": ";".join(f"{k}={v!r}" for k, v in _pinned_constants().items()),
        "mode": spec.mode.value,
    }
    return ResultTable(rows=tuple(rows), metadata=metadata)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _row_cells(row: SweepRow, mode: Mode) -> tuple:
    single, integrated = selected_radar_snrs(row.link, mode)
    return (
        row.n_elements,
        row.tx_power_dbw,
        row.link.comm_snr_db,
        row.perf.shannon_rate_bps,
        row.perf.modulation_capped_rate_bps,
        single,
        integrated,
        row.perf.range_mse_m2,
        row.perf.range_rmse_m,
        row.perf.detection_feasible,
        mode.value,
    )


def emit_csv(table: ResultTable, destination: str | Path) -> None:
    """Write the table as CSV: '#' metadata lines, a header, one line per
    row, floats at 9 significant digits. Re-emission is byte-identical."""
    mode = Mode(table.metadata["mode"])
    lines = [f"# {key}={value}" for key, value in table.metadata.items()]
    lines.append(",".join(CSV_COLUMNS))
    for row in table.rows:
        lines.append(",".join(_fmt(cell) for cell in _row_cells(row, mode)))
    try:
        Path(destination).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {destination}: {exc}") from exc
