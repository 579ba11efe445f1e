"""RF power accounting for the joint downlink: free-space path loss, thermal
noise, array gain scaling, and communications / bistatic / monostatic radar
SNR with coherent integration gain.

Everything works in dB on top of SI quantities. Transmit power is spread
uniformly over all subcarriers, so the sensing leg carries the sensing
subcarrier fraction of the power and is matched against sensing-band noise
(the two fractions cancel; both terms are kept so each budget line is
auditable). The communications budget uses the full-band expression for the
same reason.
"""

import math
from dataclasses import dataclass, fields
from enum import Enum

from .constants import BOLTZMANN, SPEED_OF_LIGHT
from .errors import DomainError
from .waveform import OfdmNumerology, SubcarrierPlan, TonePlacement, symbols_in

_FOUR_PI = 4.0 * math.pi
_FOUR_PI_DB = 30.0 * math.log10(_FOUR_PI)


class ArrayGainModel(Enum):
    """How transmit gain scales with element count.

    FIXED_TOTAL_POWER keeps radiated power constant (+10 log10 N aperture
    gain); PER_ELEMENT_POWER also scales power with N (+20 log10 N).
    """

    FIXED_TOTAL_POWER = "fixed_total_power"
    PER_ELEMENT_POWER = "per_element_power"


@dataclass(frozen=True)
class Scenario:
    """Full parameter set of one joint-link evaluation point.

    Defaults describe the reference case: a C-band LEO downlink serving a
    ground user at 500 km slant range while a ground receiver 10 km from an
    aircraft target (100 m2 RCS, 490 km from the satellite) collects radar
    reflections of the same waveform.
    """

    carrier_hz: float = 4.2e9
    bandwidth_hz: float = 1e8
    n_subcarriers: int = 1024
    n_data: int = 800
    n_sense: int = 224
    n_cp: int = 72
    tx_power_dbw: float = 1.0  # swept 1-9 dBW
    tx_gain_ref_dbi: float = 22.81  # single-element reference gain
    rx_gain_dbi: float = 32.85  # applied to both receive legs unless overridden
    n_elements: int = 1
    n_elements_ref: int = 1
    d_sat_user_km: float = 500.0
    d_sat_target_km: float = 490.0
    d_target_rx_km: float = 10.0
    rcs_m2: float = 100.0
    t_integration_s: float = 0.3
    noise_temp_k: float = 300.0
    elevation_user_deg: float = 10.0
    elevation_target_deg: float = 30.0
    doppler_precompensated: bool = True
    detection_threshold_db: float = 10.0
    tone_placement: TonePlacement = TonePlacement.COMB_UNIFORM
    array_gain_model: ArrayGainModel = ArrayGainModel.FIXED_TOTAL_POWER
    rx_gain_comm_dbi: float | None = None  # per-leg overrides of rx_gain_dbi
    rx_gain_sense_dbi: float | None = None

    def __post_init__(self):
        positive = (
            "carrier_hz",
            "bandwidth_hz",
            "d_sat_user_km",
            "d_sat_target_km",
            "d_target_rx_km",
            "rcs_m2",
            "noise_temp_k",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise DomainError(f"{name} must be > 0")
        for name in ("n_subcarriers", "n_elements", "n_elements_ref"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1")
        for name in ("n_data", "n_sense", "n_cp"):
            if getattr(self, name) < 0:
                raise DomainError(f"{name} must be >= 0")
        if self.n_data + self.n_sense > self.n_subcarriers:
            raise DomainError("n_data + n_sense must not exceed n_subcarriers")
        if self.t_integration_s < 0:
            raise DomainError("t_integration_s must be >= 0")
        for name in ("elevation_user_deg", "elevation_target_deg"):
            if not 0.0 <= getattr(self, name) <= 90.0:
                raise DomainError(f"{name} must be within [0, 90] degrees")
        # Last, so the range checks above keep their messages.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite")

    @property
    def comm_rx_gain_dbi(self) -> float:
        g = self.rx_gain_comm_dbi
        return self.rx_gain_dbi if g is None else g

    @property
    def sense_rx_gain_dbi(self) -> float:
        g = self.rx_gain_sense_dbi
        return self.rx_gain_dbi if g is None else g

    def field_values(self) -> dict:
        """Field name -> value, in declaration order (config echo, hashing)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class LinkResult:
    """Intermediate and final budget figures for one scenario point.

    ``radar_snr_*`` is the bistatic leg; the monostatic variant of the same
    budget is carried alongside. When Doppler is not precompensated the SNRs
    are the effective (ICI-degraded) values. Identity preserved exactly:
    radar_snr_integrated_db == radar_snr_single_db + integration_gain_db.
    """

    fspl_comm_db: float
    noise_comm_dbw: float
    comm_snr_db: float
    radar_rx_power_dbw: float
    noise_sense_dbw: float
    radar_snr_single_db: float
    integration_gain_db: float
    radar_snr_integrated_db: float
    mono_snr_single_db: float
    mono_snr_integrated_db: float
    implied_altitude_diag_km: float


def fspl_db(freq_hz: float, distance_m: float) -> float:
    """Free-space path loss: 20 log10(4 pi d f / c)."""
    if freq_hz <= 0:
        raise DomainError("freq_hz must be > 0")
    if distance_m <= 0:
        raise DomainError("distance_m must be > 0")
    return 20.0 * math.log10(_FOUR_PI * distance_m * freq_hz / SPEED_OF_LIGHT)


def noise_power_dbw(temp_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power: 10 log10(k T B)."""
    if temp_k <= 0:
        raise DomainError("temp_k must be > 0")
    if bandwidth_hz <= 0:
        raise DomainError("bandwidth_hz must be > 0")
    return 10.0 * math.log10(BOLTZMANN * temp_k * bandwidth_hz)


def array_gain_db(
    ref_gain_dbi: float,
    n_elements: int,
    n_elements_ref: int,
    model: ArrayGainModel = ArrayGainModel.FIXED_TOTAL_POWER,
) -> float:
    """Transmit gain of an ``n_elements`` array relative to the reference."""
    if n_elements < 1 or n_elements_ref < 1:
        raise DomainError("element counts must be >= 1")
    per_ten = 20.0 if model is ArrayGainModel.PER_ELEMENT_POWER else 10.0
    return ref_gain_dbi + per_ten * math.log10(n_elements / n_elements_ref)


def tx_array_gain_db(s: Scenario) -> float:
    return array_gain_db(s.tx_gain_ref_dbi, s.n_elements, s.n_elements_ref, s.array_gain_model)


def comm_terms(s: Scenario) -> tuple[float, float]:
    """(FSPL, noise power) of the user link, in dB."""
    fspl = fspl_db(s.carrier_hz, s.d_sat_user_km * 1000.0)
    return fspl, noise_power_dbw(s.noise_temp_k, s.bandwidth_hz)


def downlink_snr_db(p: float, g_tx: float, g_rx: float, fspl: float, noise: float) -> float:
    return p + g_tx + g_rx - fspl - noise


def comm_snr_db(s: Scenario) -> float:
    """Downlink SNR: P + G_tx + G_rx - FSPL - N.

    Uses the full-band expression; the data-subcarrier power fraction
    against data-band noise cancels identically, so no partition term
    appears.
    """
    return downlink_snr_db(s.tx_power_dbw, tx_array_gain_db(s), s.comm_rx_gain_dbi, *comm_terms(s))


def integration_gain_db(t_integration_s: float, num: OfdmNumerology) -> float:
    """Coherent integration gain, 10 log10 of the symbol count."""
    n = symbols_in(t_integration_s, num)
    if n == 0:
        raise DomainError(
            "t_integration_s admits zero symbols; integrated SNR is undefined"
        )
    return 10.0 * math.log10(n)


@dataclass(frozen=True)
class RadarTerms:
    """The radar-budget terms that depend neither on transmit power nor on
    element count, in dB. A budget adds them, not pre-summed, in the order
    P + 10log10(sf) + G_tx + G_rx + 20log10(lambda) + 10log10(rcs)
    - 30log10(4 pi) - 20log10(R1) - 20log10(R2), so it gives the same bits
    whether they were computed once per scenario or at each point."""

    sense_fraction_db: float
    wavelength_db: float
    rcs_db: float
    target_range_db: float  # satellite-target leg
    rx_range_db: float  # target-receiver leg
    noise_dbw: float  # sensing-band noise


def radar_terms(s: Scenario, plan: SubcarrierPlan) -> RadarTerms:
    """The RadarTerms of ``s``; a radar budget needs at least one sensing tone."""
    if plan.n_sense < 1:
        raise DomainError("radar budget needs n_sense >= 1")
    return RadarTerms(
        10.0 * math.log10(plan.sense_fraction),
        20.0 * math.log10(SPEED_OF_LIGHT / s.carrier_hz),
        10.0 * math.log10(s.rcs_m2),
        20.0 * math.log10(s.d_sat_target_km * 1000.0),
        20.0 * math.log10(s.d_target_rx_km * 1000.0),
        noise_power_dbw(s.noise_temp_k, plan.sense_fraction * s.bandwidth_hz),
    )


def radar_budget_db(
    tx_power_dbw: float, t: RadarTerms, tx_gain_db: float, rx_gain_db: float, rx_leg_db: float
) -> tuple[float, float]:
    """(echo power dBW, single-symbol SNR dB); R1 is the satellite-target leg
    and ``rx_leg_db`` is 20 log10(R2)."""
    received = (
        tx_power_dbw + t.sense_fraction_db + tx_gain_db + rx_gain_db + t.wavelength_db + t.rcs_db
        - _FOUR_PI_DB - t.target_range_db - rx_leg_db
    )
    return received, received - t.noise_dbw


def _bistatic(s: Scenario, plan: SubcarrierPlan) -> tuple[float, float]:
    t = radar_terms(s, plan)
    return radar_budget_db(s.tx_power_dbw, t, tx_array_gain_db(s), s.sense_rx_gain_dbi, t.rx_range_db)


def _with_integration(single: float, s: Scenario, num: OfdmNumerology) -> tuple[float, float]:
    return single, single + integration_gain_db(s.t_integration_s, num)


def bistatic_received_power_dbw(s: Scenario, plan: SubcarrierPlan) -> float:
    """Echo power at the ground radar receiver over the two bistatic legs."""
    return _bistatic(s, plan)[0]


def bistatic_radar_snr_db(
    s: Scenario, plan: SubcarrierPlan, num: OfdmNumerology
) -> tuple[float, float]:
    """(single-symbol, coherently integrated) SNR of the bistatic echo."""
    return _with_integration(_bistatic(s, plan)[1], s, num)


def monostatic_radar_snr_db(
    s: Scenario, plan: SubcarrierPlan, num: OfdmNumerology
) -> tuple[float, float]:
    """Bistatic budget degenerated to the satellite hearing its own echo:
    both legs are the satellite-target range and the receive gain is the
    transmit array gain."""
    t = radar_terms(s, plan)
    g = tx_array_gain_db(s)
    return _with_integration(radar_budget_db(s.tx_power_dbw, t, g, g, t.target_range_db)[1], s, num)
