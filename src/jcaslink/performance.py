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


def achievable_rate(snr_db: float, plan: SubcarrierPlan, num: OfdmNumerology) -> tuple[float, float]:
    """(Shannon, QPSK-capped) rate in bit/s.

    shannon = data_fraction * cp_overhead * B * log2(1 + snr); the capped
    variant cannot exceed n_data * 2 / t_symbol.
    """
    if not math.isfinite(snr_db):
        raise DomainError("snr_db must be finite")
    shannon = plan.data_fraction * num.cp_overhead * num.bandwidth_hz * math.log2(1.0 + _db_to_linear(snr_db))
    try:
        qpsk_cap = plan.n_data * QPSK_BITS_PER_SYMBOL / num.t_symbol_s
    except OverflowError:
        raise DomainError("n_data * 2 bits is past the floating-point range") from None
    return shannon, min(shannon, qpsk_cap)


def delay_crlb(post_snr_db: float, rms_bandwidth_hz: float) -> float:
    """Minimum delay-estimation variance (s^2): 1 / (8 pi^2 Brms^2 snr)."""
    if rms_bandwidth_hz <= 0:
        raise DomainError("rms_bandwidth_hz must be > 0")
    if not math.isfinite(post_snr_db):
        raise DomainError("post_snr_db must be finite")
    information = _EIGHT_PI_SQ * rms_bandwidth_hz * rms_bandwidth_hz * _db_to_linear(post_snr_db)
    if information == 0.0:
        raise DomainError("8 pi^2 Brms^2 snr underflows to 0; the delay bound is unbounded")
    if information == math.inf:
        raise DomainError("8 pi^2 Brms^2 snr overflows the floating-point range")
    return 1.0 / information


def range_mse(delay_variance_s2: float) -> tuple[float, float]:
    """Map delay variance to bistatic-range (mse m^2, rmse m)."""
    if delay_variance_s2 < 0:
        raise DomainError("delay_variance_s2 must be >= 0")
    mse = SPEED_OF_LIGHT * SPEED_OF_LIGHT * delay_variance_s2
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
