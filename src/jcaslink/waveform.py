"""OFDM numerology and subcarrier partitioning for the joint waveform.

Derives symbol timing from (bandwidth, FFT size, CP length), splits
subcarriers between data and sensing, and computes the RMS bandwidth of the
sensing tone set, which sets delay-estimation accuracy.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, PartitionOverflowError


class TonePlacement(Enum):
    """Where the sensing tones sit within the occupied band."""

    COMB_UNIFORM = "comb_uniform"  # evenly spread edge-to-edge (default)
    BLOCK_EDGE = "block_edge"  # two contiguous blocks at the band edges


@dataclass(frozen=True)
class OfdmNumerology:
    bandwidth_hz: float
    n_subcarriers: int
    n_cp_samples: int
    subcarrier_spacing_hz: float
    t_useful_s: float
    t_cp_s: float
    t_symbol_s: float
    cp_overhead: float  # useful-time fraction of the symbol, in (0, 1]


def numerology(bandwidth_hz: float, n_subcarriers: int, n_cp_samples: int) -> OfdmNumerology:
    """Derived timing/frequency quantities for one OFDM configuration.

    spacing = B/N, t_useful = N/B, t_cp = n_cp/B, t_symbol = t_useful + t_cp.
    """
    if bandwidth_hz <= 0:
        raise DomainError("bandwidth_hz must be > 0")
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
        n_cp_samples=n_cp_samples,
        subcarrier_spacing_hz=bandwidth_hz / n_subcarriers,
        t_useful_s=t_useful,
        t_cp_s=t_cp,
        t_symbol_s=t_symbol,
        cp_overhead=t_useful / t_symbol,
    )


@dataclass(frozen=True)
class SubcarrierPlan:
    n_total: int
    n_data: int
    n_sense: int
    n_unused: int
    data_fraction: float
    sense_fraction: float


def partition(n_total: int, n_data: int, n_sense: int) -> SubcarrierPlan:
    """Split ``n_total`` subcarriers into data, sensing and unused."""
    if n_total < 1:
        raise DomainError("n_total must be >= 1")
    if n_data < 0 or n_sense < 0:
        raise DomainError("subcarrier counts must be >= 0")
    if n_data + n_sense > n_total:
        raise PartitionOverflowError(
            f"n_data + n_sense = {n_data + n_sense} exceeds n_total = {n_total}"
        )
    return SubcarrierPlan(
        n_total=n_total,
        n_data=n_data,
        n_sense=n_sense,
        n_unused=n_total - n_data - n_sense,
        data_fraction=n_data / n_total,
        sense_fraction=n_sense / n_total,
    )


def tone_offsets(
    plan: SubcarrierPlan,
    num: OfdmNumerology,
    placement: TonePlacement = TonePlacement.COMB_UNIFORM,
) -> tuple[float, ...]:
    """Sensing-tone frequency offsets (Hz) from band centre.

    COMB_UNIFORM spreads the tones evenly across the full occupied band,
    edges included, so two tones sit exactly at +-B/2. BLOCK_EDGE packs them
    into two contiguous blocks at the band edges, one subcarrier spacing
    apart, which maximises RMS bandwidth.
    """
    n = plan.n_sense
    if n < 2:
        raise DomainError("need at least 2 sensing tones")
    half = num.bandwidth_hz / 2.0
    if placement is TonePlacement.COMB_UNIFORM:
        step = num.bandwidth_hz / (n - 1)
        return tuple(-half + i * step for i in range(n))
    n_low = n // 2
    spacing = num.subcarrier_spacing_hz
    low = [-half + i * spacing for i in range(n_low)]
    high = [half - i * spacing for i in range(n - n_low)]
    return tuple(low + high)


def rms_bandwidth(offsets: tuple[float, ...]) -> float:
    """Root-mean-square spread of tone offsets about band centre."""
    if len(offsets) < 2:
        raise DomainError("need at least 2 tone offsets")
    try:
        return math.sqrt(math.fsum(f * f for f in offsets) / len(offsets))
    except OverflowError:
        raise DomainError("the sum of squared tone offsets overflows the floating-point range") from None


def sensing_rms_bandwidth(
    plan: SubcarrierPlan,
    num: OfdmNumerology,
    placement: TonePlacement = TonePlacement.COMB_UNIFORM,
) -> float:
    """RMS bandwidth (Hz) of the sensing tone set under ``placement``.

    For a dense uniform comb this approaches B/sqrt(12).
    """
    return rms_bandwidth(tone_offsets(plan, num, placement))


def symbols_in(t_integration_s: float, num: OfdmNumerology) -> int:
    """Whole OFDM symbols that fit in the integration window."""
    if t_integration_s < 0:
        raise DomainError("t_integration_s must be >= 0")
    ratio = t_integration_s / num.t_symbol_s
    if ratio == math.inf:
        raise DomainError("t_integration_s / t_symbol overflows the floating-point range")
    return math.floor(ratio)
