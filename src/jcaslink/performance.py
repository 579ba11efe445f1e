"""Link SNRs mapped to user-facing metrics: achievable communications rate,
bistatic-range estimation error via the delay estimation bound, and a
detection feasibility verdict.

``performance_stage`` is the one mapping path; its grid maps a sweep's SNR
columns to result columns, each check over its whole column before the next.

The range mean-square error is the minimum-variance bound of an unbiased
delay estimator mapped through the speed of light, i.e. the error floor an
efficient estimator approaches; it is a modeling proxy, not a simulated
estimator.
"""

import math

from .constants import SPEED_OF_LIGHT
from .errors import DomainError, no_overflow
from .records import record
from .waveform import OfdmNumerology, SubcarrierPlan

QPSK_BITS_PER_SYMBOL = 2

_EIGHT_PI_SQ = 8.0 * math.pi * math.pi
_C_SQ = SPEED_OF_LIGHT * SPEED_OF_LIGHT


@record(slots=True)
class PerformanceResult:
    shannon_rate_bps: float
    qpsk_capped_rate_bps: float
    delay_variance_s2: float
    range_mse_m2: float  # bistatic (path-sum) range error
    range_rmse_m: float
    detection_feasible: bool


def performance_stage(plan: SubcarrierPlan, num: OfdmNumerology, rms_bandwidth_hz: float, threshold_db: float):
    """Scenario stage of the performance mapping: 8 pi^2 Brms^2, the rate
    prefactor data_fraction * cp_overhead * B and the QPSK cap n_data * 2 /
    t_symbol, once. Returns the grid, (comm_snrs, post_snrs) ->
    {PerformanceResult field: column}: the Shannon rate prefactor
    log2(1 + snr) and its cap, the delay variance 1 / (8 pi^2 Brms^2
    post_snr), the bistatic range error c^2 variance and the verdict
    post_snr >= threshold (inclusive), checked in that order, delay, range,
    rate, feasibility, each over its whole column before the next one. A
    finiteness or overflow check scans its column only when the column's
    sum is not finite, which any non-finite element or an overflow of the
    sum makes it; the check that no information term is zero always scans."""
    if rms_bandwidth_hz <= 0:
        raise DomainError("rms_bandwidth_hz must be > 0")
    scale = no_overflow(_EIGHT_PI_SQ * rms_bandwidth_hz * rms_bandwidth_hz, "8 pi^2 Brms^2 snr")
    prefactor = plan.data_fraction * num.cp_overhead * num.bandwidth_hz
    try:
        qpsk_cap = plan.n_data * QPSK_BITS_PER_SYMBOL / num.t_symbol_s
    except OverflowError:
        raise DomainError("n_data * 2 bits is past the floating-point range") from None
    isfinite, log2, sqrt, inf = math.isfinite, math.log2, math.sqrt, math.inf

    def grid(comm_snrs, post_snrs) -> dict[str, list]:
        if not isfinite(sum(post_snrs)) and not all(map(isfinite, post_snrs)):
            raise DomainError("post_snr_db must be finite")
        try:  # ``db`` holds the value being converted, so an overflow names it
            information = [scale * 10.0 ** ((db := snr) / 10.0) for snr in post_snrs]
        except OverflowError:
            raise DomainError(f"{db!r} dB overflows the linear scale") from None
        if 0.0 in information:
            raise DomainError("8 pi^2 Brms^2 snr underflows to 0; the delay bound is unbounded")
        if sum(information) == inf:  # the terms are positive, so max is inf exactly when inf is in the column
            no_overflow(max(information), "8 pi^2 Brms^2 snr")
        variance = [1.0 / x for x in information]
        mse = [_C_SQ * v for v in variance]
        if sum(mse) == inf:
            no_overflow(max(mse), "c^2 * delay_variance_s2")
        if not isfinite(sum(comm_snrs)) and not all(map(isfinite, comm_snrs)):
            raise DomainError("snr_db must be finite")
        try:
            shannon = [prefactor * log2(1.0 + 10.0 ** ((db := snr) / 10.0)) for snr in comm_snrs]
        except OverflowError:
            raise DomainError(f"{db!r} dB overflows the linear scale") from None
        if not isfinite(threshold_db):
            raise DomainError("threshold_db must be finite")
        capped = [qpsk_cap if qpsk_cap < rate else rate for rate in shannon]  # min(rate, qpsk_cap)
        return dict(  # in PerformanceResult field order
            shannon_rate_bps=shannon, qpsk_capped_rate_bps=capped, delay_variance_s2=variance, range_mse_m2=mse,
            range_rmse_m=list(map(sqrt, mse)), detection_feasible=[snr >= threshold_db for snr in post_snrs],
        )

    return grid

