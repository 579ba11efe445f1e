"""RF power accounting for the joint downlink: free-space path loss, thermal
noise, array gain scaling, and the communications / bistatic / monostatic
radar SNR budgets with the Doppler ICI penalty and coherent integration gain.

``link_stage`` is the one budget path, in two stages. It computes once per
scenario every term that depends neither on transmit power nor on element
count and returns the grid, (elements, powers) -> {LinkResult field: column},
which computes the array gain of each element count and then each SNR column
over every point of the grid, n-major.

Everything works in dB on top of SI quantities. Transmit power is spread
uniformly over all subcarriers, so the sensing leg carries the sensing
subcarrier fraction of the power and is matched against sensing-band noise
(the two fractions cancel; both terms are kept so each budget line is
auditable). The communications budget uses the full-band expression for the
same reason.
"""

import math
from enum import Enum

from . import geometry
from .constants import BOLTZMANN, SPEED_OF_LIGHT
from .errors import DomainError, no_overflow
from .records import fields, record
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


@record(frozen=True)
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
        v = self.__dict__  # every field, as the binder wrote it
        for name, kind in _SCENARIO_TYPES:
            if type(v[name]) is not kind:
                object.__setattr__(self, name, typed_value(name, kind, v[name]))
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
            if not v[name] > 0:
                raise DomainError(f"{name} must be > 0")
        for name in ("n_subcarriers", "n_elements", "n_elements_ref"):
            if v[name] < 1:
                raise DomainError(f"{name} must be >= 1")
        for name in ("n_data", "n_sense", "n_cp"):
            if v[name] < 0:
                raise DomainError(f"{name} must be >= 0")
        if v["n_data"] + v["n_sense"] > v["n_subcarriers"]:
            raise DomainError("n_data + n_sense must not exceed n_subcarriers")
        if v["t_integration_s"] < 0:
            raise DomainError("t_integration_s must be >= 0")
        for name in ("elevation_user_deg", "elevation_target_deg"):
            if not 0.0 <= v[name] <= 90.0:
                raise DomainError(f"{name} must be within [0, 90] degrees")
        # Last, so the range checks above keep their messages.
        for name in _SCENARIO_NUMBERS:
            value = v[name]
            if type(value) is int:
                check_printable(name, value)
            elif value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite")

    @property
    def comm_rx_gain_dbi(self) -> float:
        g = self.rx_gain_comm_dbi
        return self.rx_gain_dbi if g is None else g

    @property
    def sense_rx_gain_dbi(self) -> float:
        g = self.rx_gain_sense_dbi
        return self.rx_gain_dbi if g is None else g


# In declaration order: every (field, type), and the float, optional-float and int fields.
_SCENARIO_TYPES = tuple((f.name, f.type) for f in fields(Scenario))
_SCENARIO_NUMBERS = tuple(f.name for f in fields(Scenario) if f.type in (float, float | None, int))


def typed_value(name: str, kind, value):
    """``value`` as a field annotated ``kind`` holds it, or a DomainError naming
    the field. A float field also takes an int that is not a bool, as a float."""
    if type(value) is kind or (value is None and isinstance(None, kind)):
        return value
    if isinstance(value, (float, int)) and not isinstance(value, bool):
        if issubclass(float, kind):
            try:
                return float(value)
            except OverflowError:
                raise DomainError(f"{name} must be within the floating-point range") from None
        if kind is int and isinstance(value, int):
            return int(value)
    raise DomainError(f"{name} must be of type {getattr(kind, '__name__', kind)}, not {type(value).__name__}")


def check_printable(name: str, value: int) -> None:
    """A DomainError naming the field if ``value`` has more digits than Python
    converts to text, which the fingerprint and error messages need."""
    try:
        int.__repr__(value)
    except ValueError:
        raise DomainError(f"{name} must be within Python's integer-to-text digit limit") from None


@record(slots=True)
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
    ratio = no_overflow(_FOUR_PI * distance_m * freq_hz / SPEED_OF_LIGHT, "4 pi d f / c")
    if ratio == 0.0:
        raise DomainError("4 pi d f / c underflows to 0")
    return 20.0 * math.log10(ratio)


def noise_power_dbw(temp_k: float, bandwidth_hz: float) -> float:
    """Thermal noise power: 10 log10(k T B)."""
    if temp_k <= 0:
        raise DomainError("temp_k must be > 0")
    if bandwidth_hz <= 0:
        raise DomainError("bandwidth_hz must be > 0")
    ktb = no_overflow(BOLTZMANN * temp_k * bandwidth_hz, "k T B")
    if ktb == 0.0:
        raise DomainError("k T B underflows to 0")
    return 10.0 * math.log10(ktb)


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
    try:
        return ref_gain_dbi + per_ten * math.log10(n_elements / n_elements_ref)
    except (OverflowError, ValueError):  # the ratio is past the float range or rounds to 0
        raise DomainError("n_elements / n_elements_ref is outside the floating-point range") from None


def integration_gain_db(t_integration_s: float, num: OfdmNumerology) -> float:
    """Coherent integration gain, 10 log10 of the symbol count."""
    n = symbols_in(t_integration_s, num)
    if n == 0:
        raise DomainError(
            "t_integration_s admits zero symbols; integrated SNR is undefined"
        )
    return 10.0 * math.log10(n)


def ici_effective_snr_db(snrs_db, doppler_hz: float, subcarrier_spacing_hz: float, name: str) -> list[float]:
    """Effective SNR column ``name`` under an uncompensated carrier offset fd:
    the useful subcarrier power scales by a = sinc^2(fd / spacing) and the lost
    power reappears as inter-carrier interference, sinr = a snr / (1 + (1 - a) snr);
    a SINR that underflows to 0 is a DomainError naming the column. The spacing
    check and the factor a run once per call, then the linear, SINR and dB
    columns in turn. With fd = 0 the input SNRs are returned unchanged."""
    if subcarrier_spacing_hz <= 0:
        raise DomainError("subcarrier_spacing_hz must be > 0")
    if doppler_hz == 0.0:
        return list(snrs_db)
    px = math.pi * (doppler_hz / subcarrier_spacing_hz)
    if not math.isfinite(px):
        raise DomainError("Doppler / subcarrier spacing overflows the floating-point range")
    a = (math.sin(px) / px) ** 2 if px else 1.0  # fd / spacing can underflow to 0
    try:  # ``db`` holds the value being converted, so an overflow names it
        snrs = [10.0 ** ((db := snr) / 10.0) for snr in snrs_db]
    except OverflowError:
        raise DomainError(f"{db!r} dB overflows the linear scale") from None
    sinrs = [a * snr / (1.0 + (1.0 - a) * snr) for snr in snrs]
    try:
        return [10.0 * math.log10(sinr) for sinr in sinrs]
    except ValueError:  # log10(0)
        raise DomainError(f"{name} underflows to 0 under the Doppler ICI penalty") from None


def user_link_doppler(s: Scenario, implied_alt_km: float) -> tuple[float, float, float]:
    """(orbital speed m/s, Doppler shift Hz, Doppler left after precompensation
    Hz) of the user link, worst case: the full circular-orbit speed at the
    implied altitude taken as radial."""
    speed = geometry.orbital_speed(implied_alt_km)
    shift = geometry.doppler_shift(s.carrier_hz, speed)
    return speed, shift, 0.0 if s.doppler_precompensated else shift


def link_stage(s: Scenario, plan: SubcarrierPlan, num: OfdmNumerology):
    """Scenario stage of the budget: evaluate once every term that depends
    neither on transmit power nor on element count, then return the grid,
    (elements, powers) -> {LinkResult field: column over every (n, p), n-major},
    array gains first. A radar budget needs a sensing tone and adds its terms,
    not pre-summed, in the order P + 10log10(sf) + G_tx + G_rx + 20log10(lambda)
    + 10log10(rcs) - 30log10(4 pi) - 20log10(R1) - 20log10(R2) - N_sense, with R1
    the satellite-target leg and R2 the target-receiver leg (bistatic) or R1
    again (monostatic)."""
    fspl = fspl_db(s.carrier_hz, s.d_sat_user_km * 1000.0)
    noise_comm = noise_power_dbw(s.noise_temp_k, s.bandwidth_hz)
    comm_rx_gain, sense_rx_gain = s.comm_rx_gain_dbi, s.sense_rx_gain_dbi
    if plan.n_sense < 1:
        raise DomainError("radar budget needs n_sense >= 1")
    sense_fraction = 10.0 * math.log10(plan.sense_fraction)
    wavelength = 20.0 * math.log10(no_overflow(SPEED_OF_LIGHT / s.carrier_hz, "c / carrier_hz"))
    rcs = 10.0 * math.log10(s.rcs_m2)
    target_range = 20.0 * math.log10(no_overflow(s.d_sat_target_km * 1000.0, "d_sat_target_km * 1000"))
    rx_range = 20.0 * math.log10(no_overflow(s.d_target_rx_km * 1000.0, "d_target_rx_km * 1000"))
    noise_sense = noise_power_dbw(s.noise_temp_k, plan.sense_fraction * s.bandwidth_hz)
    gain = integration_gain_db(s.t_integration_s, num)
    # Uncompensated Doppler degrades every leg's SNR by ICI before integration.
    implied_alt_km = geometry.implied_altitude(s.d_sat_user_km, s.elevation_user_deg)
    _, _, applied_doppler_hz = user_link_doppler(s, implied_alt_km)

    def grid(elements, powers) -> dict[str, list]:
        gains = [array_gain_db(s.tx_gain_ref_dbi, n, s.n_elements_ref, s.array_gain_model) for n in elements]
        comm = [p + g_tx + comm_rx_gain - fspl - noise_comm for g_tx in gains for p in powers]
        sensed = [p + sense_fraction for p in powers]
        radar_rx = [
            q + g_tx + sense_rx_gain + wavelength + rcs - _FOUR_PI_DB - target_range - rx_range
            for g_tx in gains for q in sensed
        ]
        bi = [rx - noise_sense for rx in radar_rx]
        mono = [
            q + g_tx + g_tx + wavelength + rcs - _FOUR_PI_DB - target_range - target_range - noise_sense
            for g_tx in gains for q in sensed
        ]
        # The terms are finite, so a radar sum can only overflow to +-inf, which a finite total rules out.
        if not math.isfinite(sum(radar_rx) + sum(mono)):
            for name, column in (("radar_rx_power_dbw", radar_rx), ("mono_snr_single_db", mono)):
                no_overflow(max(column, key=abs), name)
        if applied_doppler_hz:  # column by column: comm, then bistatic, then monostatic
            comm, bi, mono = (
                ici_effective_snr_db(column, applied_doppler_hz, num.subcarrier_spacing_hz, name)
                for name, column in (("comm_snr_db", comm), ("radar_snr_single_db", bi), ("mono_snr_single_db", mono))
            )
        size = len(comm)
        return dict(  # in LinkResult field order
            fspl_comm_db=[fspl] * size, noise_comm_dbw=[noise_comm] * size, comm_snr_db=comm,
            radar_rx_power_dbw=radar_rx, noise_sense_dbw=[noise_sense] * size, radar_snr_single_db=bi,
            integration_gain_db=[gain] * size, radar_snr_integrated_db=[snr + gain for snr in bi],
            mono_snr_single_db=mono, mono_snr_integrated_db=[snr + gain for snr in mono],
            implied_altitude_diag_km=[implied_alt_km] * size,
        )

    return grid
