"""Registry of communication-satellite frequency bands and spaceborne-radar
active-sensing allocations, with lookups and a joint-use pairing check.

The registry ships as a plain-text database (``data/bands.txt``) compiled
into immutable records at load time. File schema, one record per line:

    service|band_letter|low_hz|high_hz|notes

``service`` is ``communications`` or ``active_sensing``; frequencies are
integer Hz. For communications rows the notes field is the free-text
applications column; for active_sensing rows it lists the per-sensor
assigned bandwidths as ``sensor=range`` pairs joined by ``'; '``, and each
sensor must be one of SENSOR_KINDS. Blank sensor cells are absent rather
than zero. Records keep the notes text verbatim.

Frequencies are Hz internally; the public lookups accept GHz (and MHz for
occupied bandwidth) to match how the allocations are usually quoted.
"""

import math
import os
from enum import Enum
from functools import lru_cache

from .errors import DomainError, parse_lines, read_text
from .records import record

BAND_LETTERS = frozenset({"L", "S", "C", "X", "Ku", "K", "Ka", "Q-V", "P", "W", "G"})

SENSOR_KINDS = (
    "scatterometer",
    "altimeter",
    "sar",
    "precipitation_radar",
    "cloud_profile_radar",
)

_GHZ = 1e9
_MHZ = 1e6


class ServiceKind(Enum):
    COMMUNICATIONS = "communications"
    ACTIVE_SENSING = "active_sensing"


class PairingVerdict(Enum):
    COMM_ONLY = "comm_only"
    JCAS_COLOCATED = "jcas_colocated"
    UNALLOCATED = "unallocated"


@record()
class BandRecord:
    """One allocation row: a service, a band letter, a frequency range and
    the database notes text."""

    service: ServiceKind
    band_letter: str
    freq_low_hz: int
    freq_high_hz: int
    notes: str = ""

    def __post_init__(self):
        if self.band_letter not in BAND_LETTERS:
            raise DomainError(f"unknown band_letter {self.band_letter!r}")
        if not self.freq_low_hz < self.freq_high_hz:
            raise DomainError("freq_low_hz must be < freq_high_hz")
        if self.service is ServiceKind.ACTIVE_SENSING:
            for item in self.notes.split("; "):
                sensor = item.partition("=")[0].strip()
                if sensor not in SENSOR_KINDS:
                    raise DomainError(f"unknown sensor kind {sensor!r}")


@record()
class PairingReport:
    """Join of the two tables around one carrier's occupied bandwidth;
    ``comm_band`` is the communications band containing the carrier."""

    comm_band: BandRecord | None
    overlapping_radar_allocations: tuple[BandRecord, ...]
    verdict: PairingVerdict


def parse_record(line: str) -> BandRecord:
    parts = line.split("|")
    if len(parts) != 5:
        raise DomainError(f"expected 5 '|'-separated fields, got {len(parts)}")
    service_raw, letter, low_raw, high_raw, notes = (p.strip() for p in parts)
    try:
        service = ServiceKind(service_raw)
    except ValueError:
        raise DomainError(f"unknown service {service_raw!r}") from None
    return BandRecord(service, letter, int(low_raw), int(high_raw), notes)


def format_record(record: BandRecord) -> str:
    return "|".join(
        (
            record.service.value,
            record.band_letter,
            str(record.freq_low_hz),
            str(record.freq_high_hz),
            record.notes,
        )
    )


def load_registry(path: str | os.PathLike | None = None) -> tuple[BandRecord, ...]:
    """Load band records from ``path``, or the packaged database by default.

    The file is read as a config document is (``errors.read_text`` and
    ``errors.parse_lines``). A malformed record, or a file that cannot be read
    as UTF-8, raises DomainError naming the line or path.
    """
    if path is None:
        path = os.path.join(os.path.dirname(__file__), "data", "bands.txt")
    text = read_text(path, "band database", DomainError)
    return tuple(parse_lines(text, parse_record, DomainError, "band database "))


def dump_registry(records: tuple[BandRecord, ...], path: str | os.PathLike) -> None:
    """Write records back out in the canonical one-record-per-line format."""
    lines = ["# service|band_letter|low_hz|high_hz|notes"]
    lines.extend(format_record(r) for r in records)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


@lru_cache(maxsize=1)
def default_registry() -> tuple[BandRecord, ...]:
    return load_registry()


def comm_records() -> tuple[BandRecord, ...]:
    return tuple(r for r in default_registry() if r.service is ServiceKind.COMMUNICATIONS)


def radar_records() -> tuple[BandRecord, ...]:
    return tuple(r for r in default_registry() if r.service is ServiceKind.ACTIVE_SENSING)


def lookup_comm_band(freq_ghz: float) -> BandRecord | None:
    """The communications band containing ``freq_ghz``, or None in a gap."""
    if not 0 < freq_ghz < math.inf:
        raise DomainError("freq_ghz must be finite and > 0")
    freq_hz = freq_ghz * _GHZ
    for record in comm_records():
        if record.freq_low_hz <= freq_hz <= record.freq_high_hz:
            return record
    return None


def lookup_radar_allocations(freq_low_ghz: float, freq_high_ghz: float) -> tuple[BandRecord, ...]:
    """All active-sensing allocations intersecting the closed range, sorted
    by lower band edge."""
    if not freq_low_ghz < freq_high_ghz:
        raise DomainError("freq_low_ghz must be < freq_high_ghz")
    low_hz, high_hz = freq_low_ghz * _GHZ, freq_high_ghz * _GHZ
    hits = [r for r in radar_records() if low_hz <= r.freq_high_hz and high_hz >= r.freq_low_hz]
    hits.sort(key=lambda r: r.freq_low_hz)
    return tuple(hits)


def check_jcas_pairing(carrier_ghz: float, bandwidth_mhz: float) -> PairingReport:
    """Classify a carrier and its occupied bandwidth against both tables.

    Verdict is ``jcas_colocated`` iff the carrier sits in a communications
    band and at least one radar allocation overlaps the occupied band;
    ``comm_only`` when only the communications match holds; ``unallocated``
    when no communications band contains the carrier.
    """
    if not 0 < carrier_ghz < math.inf:
        raise DomainError("carrier_ghz must be finite and > 0")
    if not 0 < bandwidth_mhz < math.inf:
        raise DomainError("bandwidth_mhz must be finite and > 0")
    half_ghz = bandwidth_mhz * _MHZ / _GHZ / 2.0
    low_ghz, high_ghz = carrier_ghz - half_ghz, carrier_ghz + half_ghz
    if high_ghz == math.inf:  # carrier > 0, so the lower edge is then finite
        raise DomainError("bandwidth_mhz puts the occupied-band edges past the floating-point range")
    if low_ghz == high_ghz:
        raise DomainError("the occupied-band edges carrier_ghz +- bandwidth_mhz / 2 round to one value")
    comm = lookup_comm_band(carrier_ghz)
    radar = lookup_radar_allocations(low_ghz, high_ghz)
    if comm is None:
        verdict = PairingVerdict.UNALLOCATED
    elif radar:
        verdict = PairingVerdict.JCAS_COLOCATED
    else:
        verdict = PairingVerdict.COMM_ONLY
    return PairingReport(
        comm_band=comm,
        overlapping_radar_allocations=radar,
        verdict=verdict,
    )
