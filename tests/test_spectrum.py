"""Band-registry contents, lookups, pairing verdicts, and round-trip."""

import itertools
import math
import re

import pytest

from jcaslink.errors import DomainError
from jcaslink.spectrum import (
    PairingVerdict,
    ServiceKind,
    check_jcas_pairing,
    comm_records,
    default_registry,
    dump_registry,
    load_registry,
    lookup_comm_band,
    lookup_radar_allocations,
    radar_records,
)


def test_registry_row_counts():
    assert len(comm_records()) == 7
    assert len(radar_records()) == 14


def test_lookup_carrier_in_c_band():
    record = lookup_comm_band(4.2)
    assert record is not None
    assert record.band_letter == "C"
    assert record.freq_low_hz == 3_400_000_000
    assert record.freq_high_hz == 7_025_000_000


def test_lookup_ku_band():
    record = lookup_comm_band(12.0)
    assert record.band_letter == "Ku"
    assert (record.freq_low_hz, record.freq_high_hz) == (10_700_000_000, 14_500_000_000)


def test_lookup_gap_returns_none():
    # 3.0 GHz falls in the 2.69-3.4 GHz gap between S and C
    assert lookup_comm_band(3.0) is None


@pytest.mark.parametrize("freq_ghz", [0.0, -3.0, math.nan, math.inf])
def test_lookup_rejects_nonpositive(freq_ghz):
    with pytest.raises(DomainError, match="freq_ghz"):
        lookup_comm_band(freq_ghz)


def test_radar_allocations_empty_around_reference_carrier():
    assert lookup_radar_allocations(4.15, 4.25) == ()


def test_radar_allocations_c_band():
    hits = lookup_radar_allocations(5.0, 6.0)
    assert len(hits) == 1
    assert hits[0].band_letter == "C"
    assert (hits[0].freq_low_hz, hits[0].freq_high_hz) == (5_250_000_000, 5_570_000_000)


def test_radar_allocations_x_band():
    hits = lookup_radar_allocations(9.0, 10.0)
    assert len(hits) == 1
    assert (hits[0].freq_low_hz, hits[0].freq_high_hz) == (9_300_000_000, 9_900_000_000)


def test_radar_allocations_sorted_over_full_span():
    hits = lookup_radar_allocations(0.1, 300.0)
    assert len(hits) == 14
    lows = [r.freq_low_hz for r in hits]
    assert lows == sorted(lows)


def test_radar_allocations_rejects_inverted_range():
    with pytest.raises(DomainError):
        lookup_radar_allocations(6.0, 5.0)


def test_pairing_reference_carrier_comm_only():
    report = check_jcas_pairing(4.2, 100.0)
    assert report.comm_band.band_letter == "C"
    assert report.overlapping_radar_allocations == ()
    assert report.verdict is PairingVerdict.COMM_ONLY


def test_pairing_colocated_at_5p41ghz():
    report = check_jcas_pairing(5.41, 100.0)
    assert report.comm_band.band_letter == "C"
    assert any(r.freq_low_hz == 5_250_000_000 for r in report.overlapping_radar_allocations)
    assert report.verdict is PairingVerdict.JCAS_COLOCATED


def test_pairing_unallocated_below_comm_bands():
    # 0.5 GHz +-5 MHz misses both the comm table and the 432-438 MHz row
    report = check_jcas_pairing(0.5, 10.0)
    assert report.comm_band is None
    assert report.overlapping_radar_allocations == ()
    assert report.verdict is PairingVerdict.UNALLOCATED


def test_comm_ranges_pairwise_disjoint():
    records = comm_records()
    for a, b in itertools.combinations(records, 2):
        assert a.freq_high_hz < b.freq_low_hz or b.freq_high_hz < a.freq_low_hz, (
            f"{a.band_letter} and {b.band_letter} overlap"
        )


def test_lookup_result_contains_query():
    for freq in (1.6, 2.0, 4.2, 7.3, 12.0, 20.0, 40.0):
        record = lookup_comm_band(freq)
        if record is not None:
            assert record.freq_low_hz <= freq * 1e9 <= record.freq_high_hz


def test_sensor_bandwidths_verbatim():
    l_band = [r for r in radar_records() if r.band_letter == "L"]
    assert len(l_band) == 1
    # the blank altimeter cell stays absent
    assert l_band[0].notes == "scatterometer=5-500 kHz; sar=20-85 MHz"


def test_duplicate_letter_rows_kept_separate():
    for letter, expected in (("X", 2), ("Ku", 2), ("W", 2), ("G", 2)):
        rows = [r for r in radar_records() if r.band_letter == letter]
        assert len(rows) == expected


def test_round_trip_reproduces_every_record(tmp_path):
    original = default_registry()
    out = tmp_path / "bands.txt"
    dump_registry(original, out)
    reloaded = load_registry(out)
    assert reloaded == original

    # re-serialization is byte-identical
    out2 = tmp_path / "bands2.txt"
    dump_registry(reloaded, out2)
    assert out.read_bytes() == out2.read_bytes()


def test_comm_records_have_no_sensor_map():
    for record in comm_records():
        assert record.service is ServiceKind.COMMUNICATIONS
        assert record.notes
        assert "=" not in record.notes  # applications text, no sensor=range pairs


def test_malformed_line_reports_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("communications|C|3400000000|7025000000|ok\nnot a record\n")
    with pytest.raises(DomainError, match="line 2"):
        load_registry(bad)


# The band database is read as a config document is: a byte-order mark, CRLF endings and a comment
# holding a form feed or a line separator, which ends no line, all leave the records as they are.
def test_database_reading_rules_match_the_config_reader(tmp_path):
    plain, styled = tmp_path / "plain.txt", tmp_path / "styled.txt"
    dump_registry(default_registry(), plain)
    text = plain.read_text(encoding="utf-8")
    styled.write_bytes(b"\xef\xbb\xbf" + ("# a\fb\n# c\u2028d\n\n" + text).replace("\n", "\r\n").encode())
    assert load_registry(styled) == load_registry(plain) == default_registry()


def test_missing_database_is_a_domain_error(tmp_path):
    with pytest.raises(DomainError, match=r"^cannot read band database .*missing.txt: \[Errno 2\]"):
        load_registry(tmp_path / "missing.txt")


@pytest.mark.parametrize(
    "text,message",
    [
        ("# header\nactive_sensing|P|432000000|438000000|radar=5 MHz\n", "line 2: unknown sensor kind 'radar'"),
        ("communications|Z|1|2|x\n", "line 1: unknown band_letter 'Z'"),
        ("communications|C|2|1|x\n", "line 1: freq_low_hz must be < freq_high_hz"),
        ("radio|C|1|2|x\n", "line 1: unknown service 'radio'"),
    ],
)
def test_bad_field_reports_line_number(tmp_path, text, message):
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(DomainError, match=f"^band database {re.escape(message)}$"):
        load_registry(bad)


def test_spaced_sensor_pair_loads_and_round_trips_verbatim(tmp_path):
    path = tmp_path / "bands.txt"
    path.write_text("active_sensing|P|432000000|438000000|sar = 6 MHz\n")
    (record,) = load_registry(path)
    assert record.notes == "sar = 6 MHz"
    out = tmp_path / "out.txt"
    dump_registry((record,), out)
    assert load_registry(out) == (record,)
    assert out.read_text().splitlines()[1] == "active_sensing|P|432000000|438000000|sar = 6 MHz"
