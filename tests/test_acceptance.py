"""Acceptance gate: one test per release criterion, each at its stated
tolerance, printing a PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import functools
import itertools
import math
import time

import pytest

from jcaslink.cli import main as cli_main
from jcaslink.linkbudget import Scenario, array_gain_db, fspl_db, link_stage, noise_power_dbw
from jcaslink.spectrum import comm_records, default_registry, dump_registry, load_registry, lookup_comm_band
from jcaslink.sweep import Mode, SweepSpec, run_sweep
from jcaslink.performance import performance_stage
from jcaslink.waveform import numerology, partition, sensing_rms_bandwidth, symbols_in


def criterion(num: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {description}")
                raise
            print(f"PASS criterion {num}: {description}")

        return wrapper

    return decorate


@criterion(1, "free-space path loss oracle at both link distances, under 1 ms")
def test_criterion_1_fspl_oracle():
    start = time.perf_counter()
    user_leg = fspl_db(4.2e9, 500e3)
    rx_leg = fspl_db(4.2e9, 10e3)
    elapsed = time.perf_counter() - start
    assert user_leg == pytest.approx(158.89, abs=0.01)
    assert rx_leg == pytest.approx(124.91, abs=0.01)
    assert elapsed < 1e-3


@criterion(2, "thermal noise oracle at 300 K over 100 MHz")
def test_criterion_2_noise_oracle():
    assert noise_power_dbw(300.0, 1e8) == pytest.approx(-123.83, abs=0.01)


@criterion(3, "reference numerology exact: spacing, symbol time, symbol count")
def test_criterion_3_numerology_oracle():
    num = numerology(1e8, 1024, 72)
    assert num.subcarrier_spacing_hz == 97656.25
    assert num.t_symbol_s == 10.96e-6
    assert symbols_in(0.3, num) == 27372


@criterion(4, "rate grows strictly with power and elements; +1 dB SNR per +1 dBW; sweep under 1 s")
def test_criterion_4_rate_trends():
    start = time.perf_counter()
    table = run_sweep(SweepSpec())
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(table.rows) == 45

    elements = sorted({r.n_elements for r in table.rows})
    powers = sorted({r.tx_power_dbw for r in table.rows})
    by_key = {(r.n_elements, r.tx_power_dbw): r for r in table.rows}
    for n in elements:
        rates = [by_key[(n, p)].perf.shannon_rate_bps for p in powers]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        snrs = [by_key[(n, p)].link.comm_snr_db for p in powers]
        for a, b in zip(snrs, snrs[1:]):
            assert b - a == pytest.approx(1.0, abs=1e-9)
    for p in powers:
        rates = [by_key[(n, p)].perf.shannon_rate_bps for n in elements]
        assert all(a < b for a, b in zip(rates, rates[1:]))


@criterion(5, "range MSE falls strictly with power; 1-to-9 dBW ratio is the pure inverse-SNR law")
def test_criterion_5_mse_trend():
    table = run_sweep(SweepSpec())
    by_key = {(r.n_elements, r.tx_power_dbw): r for r in table.rows}
    for n in sorted({r.n_elements for r in table.rows}):
        mses = [by_key[(n, float(p))].perf.range_mse_m2 for p in range(1, 10)]
        assert all(a > b for a, b in zip(mses, mses[1:]))
        assert mses[0] / mses[-1] == pytest.approx(10.0**0.8, abs=1e-6)


@criterion(6, "monostatic echo sits 33.81 dB below bistatic and never reaches the threshold")
def test_criterion_6_monostatic_infeasibility():
    base = Scenario()
    num = numerology(base.bandwidth_hz, base.n_subcarriers, base.n_cp)
    plan = partition(base.n_subcarriers, base.n_data, base.n_sense)

    from jcaslink.records import replace

    g_tx = array_gain_db(base.tx_gain_ref_dbi, base.n_elements, base.n_elements_ref, base.array_gain_model)
    matched = replace(base, rx_gain_sense_dbi=g_tx)
    link = link_stage(matched, plan, num)((matched.n_elements,), (matched.tx_power_dbw,))
    bi, mono = link["radar_snr_integrated_db"][0], link["mono_snr_integrated_db"][0]
    assert bi - mono == pytest.approx(33.81, abs=0.01)

    mono_table = run_sweep(SweepSpec(mode=Mode.RADAR_MONOSTATIC))
    assert all(r.perf.detection_feasible is False for r in mono_table.rows)

    bi_table = run_sweep(SweepSpec())
    assert all(math.isfinite(r.perf.range_mse_m2) and r.perf.range_mse_m2 > 0 for r in bi_table.rows)


@criterion(7, "band registry exact: carrier lookup, lossless round-trip, disjoint comm bands")
def test_criterion_7_spectrum_exactness(tmp_path):
    record = lookup_comm_band(4.2)
    assert record.band_letter == "C"
    assert (record.freq_low_hz, record.freq_high_hz) == (3_400_000_000, 7_025_000_000)

    original = default_registry()
    assert len(comm_records()) == 7
    assert len(original) - len(comm_records()) == 14
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    dump_registry(original, first)
    reloaded = load_registry(first)
    assert reloaded == original
    dump_registry(reloaded, second)
    assert first.read_bytes() == second.read_bytes()

    for a, b in itertools.combinations(comm_records(), 2):
        assert a.freq_high_hz < b.freq_low_hz or b.freq_high_hz < a.freq_low_hz


@criterion(8, "delay-bound scaling laws and sensing-comb RMS bandwidth against brute force")
def test_criterion_8_delay_bound_properties():
    plan = partition(1024, 800, 224)
    num = numerology(1e8, 1024, 72)

    def delay_variance(brms, post_snr_db):
        return performance_stage(plan, num, brms, 10.0)((0.0,), (post_snr_db,))["delay_variance_s2"][0]

    for snr in (-10.0, 0.0, 12.5, 30.0):
        assert delay_variance(28.87e6, snr + 10.0) == pytest.approx(
            delay_variance(28.87e6, snr) / 10.0, rel=1e-9
        )
    for bw in (1e6, 28.87e6, 1e8):
        assert delay_variance(2.0 * bw, 0.0) == pytest.approx(delay_variance(bw, 0.0) / 4.0, rel=1e-9)

    step = 1e8 / (plan.n_sense - 1)
    offsets = [-5e7 + i * step for i in range(plan.n_sense)]
    brute = math.sqrt(sum(f * f for f in offsets) / plan.n_sense)
    value = sensing_rms_bandwidth(plan, num)
    assert value == pytest.approx(brute, rel=1e-12)
    assert abs(value - 1e8 / math.sqrt(12.0)) / (1e8 / math.sqrt(12.0)) < 0.005


@criterion(9, "sweep output is deterministic: identical bytes, concurrency-invariant tables")
def test_criterion_9_determinism(tmp_path, capsys):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--out", str(first)]) == 0
    assert cli_main(["sweep", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()

    sequential = run_sweep(SweepSpec(), workers=1)
    concurrent = run_sweep(SweepSpec(), workers=8)
    assert sequential.rows == concurrent.rows
