"""Link SNRs mapped to user-facing metrics: achievable communications rate,
bistatic-range estimation error via the delay estimation bound, and a
detection feasibility verdict.

The range mean-square error is the minimum-variance bound of an unbiased
delay estimator mapped through the speed of light, i.e. the error floor an
efficient estimator approaches; it is a modeling proxy, not a simulated
estimator.
"""

import math
from dataclasses import dataclass

from .constants import SPEED_OF_LIGHT
from .errors import DomainError
from .waveform import OfdmNumerology, SubcarrierPlan

QPSK_BITS_PER_SYMBOL = 2

_EIGHT_PI_SQ = 8.0 * math.pi * math.pi
_INFORMATION_OVERFLOWS = "8 pi^2 Brms^2 snr overflows the floating-point range"


def _db_to_linear(value_db: float) -> float:
    """10^(x/10); a value past the floating-point range is a DomainError."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        raise DomainError(f"{value_db!r} dB overflows the linear scale") from None


@dataclass(slots=True)
class PerformanceResult:
    shannon_rate_bps: float
    qpsk_capped_rate_bps: float
    delay_variance_s2: float
    range_mse_m2: float  # bistatic (path-sum) range error
    range_rmse_m: float
    detection_feasible: bool


def rate_stage(plan: SubcarrierPlan, num: OfdmNumerology):
    """Scenario stage of the rate: prefactor = data_fraction * cp_overhead * B and cap =
    n_data * 2 / t_symbol, once; snr_db -> (prefactor log2(1 + snr), min(that, cap)) bit/s."""
    prefactor = plan.data_fraction * num.cp_overhead * num.bandwidth_hz
    try:
        qpsk_cap = plan.n_data * QPSK_BITS_PER_SYMBOL / num.t_symbol_s
    except OverflowError:
        raise DomainError("n_data * 2 bits is past the floating-point range") from None

    def rate(snr_db: float) -> tuple[float, float]:
        if not math.isfinite(snr_db):
            raise DomainError("snr_db must be finite")
        shannon = prefactor * math.log2(1.0 + _db_to_linear(snr_db))
        return shannon, min(shannon, qpsk_cap)

    return rate


def delay_stage(rms_bandwidth_hz: float):
    """Scenario stage of the delay bound: 8 pi^2 Brms^2, once; returns post_snr_db
    -> minimum delay-estimation variance (s^2), 1 / (8 pi^2 Brms^2 snr)."""
    if rms_bandwidth_hz <= 0:
        raise DomainError("rms_bandwidth_hz must be > 0")
    scale = _EIGHT_PI_SQ * rms_bandwidth_hz * rms_bandwidth_hz
    if scale == math.inf:
        raise DomainError(_INFORMATION_OVERFLOWS)

    def variance(post_snr_db: float) -> float:
        if not math.isfinite(post_snr_db):
            raise DomainError("post_snr_db must be finite")
        information = scale * _db_to_linear(post_snr_db)
        if information == 0.0:
            raise DomainError("8 pi^2 Brms^2 snr underflows to 0; the delay bound is unbounded")
        if information == math.inf:
            raise DomainError(_INFORMATION_OVERFLOWS)
        return 1.0 / information

    return variance


def range_mse(delay_variance_s2: float) -> tuple[float, float]:
    """Map delay variance to bistatic-range (mse m^2, rmse m)."""
    if delay_variance_s2 < 0:
        raise DomainError("delay_variance_s2 must be >= 0")
    mse = SPEED_OF_LIGHT * SPEED_OF_LIGHT * delay_variance_s2
    if mse == math.inf:
        raise DomainError("c^2 * delay_variance_s2 overflows the floating-point range")
    return mse, math.sqrt(mse)


def detection_feasible(post_snr_db: float, threshold_db: float) -> bool:
    """True iff the post-integration SNR meets the threshold (inclusive)."""
    if not (math.isfinite(post_snr_db) and math.isfinite(threshold_db)):
        raise DomainError("post_snr_db and threshold_db must be finite")
    return post_snr_db >= threshold_db


def _sinc(x: float) -> float:
    if x == 0.0:
        return 1.0
    px = math.pi * x
    if not math.isfinite(px):
        raise DomainError("Doppler / subcarrier spacing overflows the floating-point range")
    return math.sin(px) / px


def ici_effective_snr_db(snr_db: float, doppler_hz: float, subcarrier_spacing_hz: float) -> float:
    """Effective SNR under an uncompensated carrier offset.

    The useful subcarrier power scales by sinc^2(fd / spacing) and the lost
    power reappears as inter-carrier interference:

        sinr = a * snr / (1 + (1 - a) * snr),  a = sinc^2(fd / spacing)

    With fd = 0 the input SNR is returned unchanged.
    """
    if subcarrier_spacing_hz <= 0:
        raise DomainError("subcarrier_spacing_hz must be > 0")
    if doppler_hz == 0.0:
        return snr_db
    a = _sinc(doppler_hz / subcarrier_spacing_hz) ** 2
    snr = _db_to_linear(snr_db)
    sinr = a * snr / (1.0 + (1.0 - a) * snr)
    if sinr == 0.0:
        return float("-inf")
    return 10.0 * math.log10(sinr)
