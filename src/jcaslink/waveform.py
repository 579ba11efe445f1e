"""OFDM numerology and subcarrier partitioning for the joint waveform.

Derives symbol timing from (bandwidth, FFT size, CP length), splits
subcarriers between data and sensing, and computes the RMS bandwidth of the
sensing tone set, which sets delay-estimation accuracy.
"""

import math
from enum import Enum

from .errors import DomainError, no_overflow
from .records import record


class TonePlacement(Enum):
    """Where the sensing tones sit within the occupied band."""

    COMB_UNIFORM = "comb_uniform"  # evenly spread edge-to-edge (default)
    BLOCK_EDGE = "block_edge"  # two contiguous blocks at the band edges


@record()
class OfdmNumerology:
    bandwidth_hz: float
    n_subcarriers: int
    subcarrier_spacing_hz: float
    t_symbol_s: float
    cp_overhead: float  # useful-time fraction of the symbol, in (0, 1]


def numerology(bandwidth_hz: float, n_subcarriers: int, n_cp_samples: int) -> OfdmNumerology:
    """Derived timing/frequency quantities for one OFDM configuration.

    spacing = B/N, t_useful = N/B, t_cp = n_cp/B, t_symbol = t_useful + t_cp.
    """
    if not 0 < bandwidth_hz < math.inf:
        raise DomainError("bandwidth_hz must be finite and > 0")
    if n_subcarriers < 1:
        raise DomainError("n_subcarriers must be >= 1")
    if n_cp_samples < 0:
        raise DomainError("n_cp_samples must be >= 0")
    try:
        t_useful = n_subcarriers / bandwidth_hz
        t_cp = n_cp_samples / bandwidth_hz
    except OverflowError:
        raise DomainError("n_subcarriers and n_cp_samples must fit the floating-point range") from None
    t_symbol = t_useful + t_cp
    return OfdmNumerology(
        bandwidth_hz=bandwidth_hz,
        n_subcarriers=n_subcarriers,
        subcarrier_spacing_hz=bandwidth_hz / n_subcarriers,
        t_symbol_s=t_symbol,
        cp_overhead=t_useful / t_symbol,
    )


@record()
class SubcarrierPlan:
    n_data: int
    n_sense: int
    data_fraction: float
    sense_fraction: float


def partition(n_total: int, n_data: int, n_sense: int) -> SubcarrierPlan:
    """Split ``n_total`` subcarriers into data, sensing and unused."""
    if n_total < 1:
        raise DomainError("n_total must be >= 1")
    if n_data < 0 or n_sense < 0:
        raise DomainError("subcarrier counts must be >= 0")
    if n_data + n_sense > n_total:
        raise DomainError(f"n_data + n_sense = {n_data + n_sense} exceeds n_total = {n_total}")
    return SubcarrierPlan(
        n_data=n_data,
        n_sense=n_sense,
        data_fraction=n_data / n_total,
        sense_fraction=n_sense / n_total,
    )


def _times_sqrt(b: float, p: int, q: int) -> float:
    """b * sqrt(p / q), correctly rounded for a normal result.

    With b = m 2^e (m a 53-bit integer), r = isqrt(m^2 p 4^k // q) is the
    floor of sqrt(m^2 p / q) 2^k, which has 114 or more bits for p / q >= 1/12
    (every tone set here); or-ing in a sticky bit when that root is inexact
    lets float() round it once, to nearest even."""
    mantissa, exp = math.frexp(b)
    m, k = int(math.ldexp(mantissa, 53)), 64
    scaled, rem = divmod(m * m * p << 2 * k, q)
    r = math.isqrt(scaled)
    return math.ldexp(float(r | (rem != 0 or r * r != scaled)), exp - 53 - k)


def sensing_rms_bandwidth(
    plan: SubcarrierPlan,
    num: OfdmNumerology,
    placement: TonePlacement = TonePlacement.COMB_UNIFORM,
) -> float:
    """RMS spread (Hz) about band centre of the sensing tones under ``placement``.

    COMB_UNIFORM spreads the n tones evenly across the full occupied band,
    edges included, so two tones sit exactly at +-B/2:
    Brms = B sqrt((n + 1) / (12 (n - 1))), which approaches B/sqrt(12).
    BLOCK_EDGE packs them into two contiguous blocks of floor(n/2) and
    n - floor(n/2) tones at the band edges, one subcarrier spacing B/N
    apart (N = n_subcarriers), which maximises RMS bandwidth:
    Brms^2 = B^2 (S(n_low) + S(n_high)) / (12 N^2 n), where the sum of
    (N - 2i)^2 over i < m is S(m) / 3 and
    S(m) = 3 m N^2 - 6 m (m - 1) N + 2 (m - 1) m (2m - 1).
    """
    n = plan.n_sense
    if n < 2:
        raise DomainError("need at least 2 sensing tones")
    if placement is TonePlacement.COMB_UNIFORM:
        return _times_sqrt(num.bandwidth_hz, n + 1, 12 * (n - 1))
    n_sc = num.n_subcarriers

    def s(m: int) -> int:
        return 3 * m * n_sc * n_sc - 6 * m * (m - 1) * n_sc + 2 * (m - 1) * m * (2 * m - 1)

    return _times_sqrt(num.bandwidth_hz, s(n // 2) + s(n - n // 2), 12 * n_sc * n_sc * n)


def symbols_in(t_integration_s: float, num: OfdmNumerology) -> int:
    """Whole OFDM symbols that fit in the integration window."""
    if t_integration_s < 0:
        raise DomainError("t_integration_s must be >= 0")
    return math.floor(no_overflow(t_integration_s / num.t_symbol_s, "t_integration_s / t_symbol"))
