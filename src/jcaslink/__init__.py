"""jcaslink: deterministic link-level simulator for a bistatic
joint-communications-and-sensing LEO satellite downlink.

Evaluates achievable communications rate and bistatic radar range-error
bounds over transmit power and antenna-count grids, and carries a registry
of satellite communication and spaceborne-radar frequency allocations.
"""

from ._version import __version__
from .errors import ConfigError, DomainError
from .geometry import doppler_shift, implied_altitude, orbital_speed
from .linkbudget import (
    ArrayGainModel,
    LinkResult,
    Scenario,
    array_gain_db,
    fspl_db,
    noise_power_dbw,
)
from .performance import PerformanceResult
from .sweep import Mode, ResultTable, SweepSpec, emit_csv, run_point, run_sweep
from .waveform import (
    OfdmNumerology,
    SubcarrierPlan,
    TonePlacement,
    numerology,
    partition,
    sensing_rms_bandwidth,
    symbols_in,
)

__all__ = [
    "__version__",
    "ArrayGainModel",
    "BandRecord",
    "ConfigError",
    "DomainError",
    "LinkResult",
    "Mode",
    "OfdmNumerology",
    "PairingReport",
    "PairingVerdict",
    "PerformanceResult",
    "ResultTable",
    "Scenario",
    "ServiceKind",
    "SubcarrierPlan",
    "SweepSpec",
    "TonePlacement",
    "array_gain_db",
    "check_jcas_pairing",
    "doppler_shift",
    "emit_csv",
    "fspl_db",
    "implied_altitude",
    "load_registry",
    "lookup_comm_band",
    "lookup_radar_allocations",
    "noise_power_dbw",
    "numerology",
    "orbital_speed",
    "partition",
    "run_point",
    "run_sweep",
    "sensing_rms_bandwidth",
    "symbols_in",
]

# The __all__ names not imported above are the band-registry names; they load
# jcaslink.spectrum on first access (PEP 562), as a sweep never needs it.
_SPECTRUM_NAMES = frozenset(__all__) - globals().keys()


def __getattr__(name):
    if name in _SPECTRUM_NAMES:
        from . import spectrum
        return getattr(spectrum, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(globals().keys() | _SPECTRUM_NAMES)
