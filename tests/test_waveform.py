"""Numerology, subcarrier partition, sensing-comb RMS bandwidth, symbol counts."""

import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcaslink.errors import DomainError
from jcaslink.waveform import (
    TonePlacement,
    numerology,
    partition,
    sensing_rms_bandwidth,
    symbols_in,
)

REF_BANDWIDTH_HZ = 1e8
REF_N_SC = 1024
REF_N_CP = 72


@pytest.fixture
def ref_num():
    return numerology(REF_BANDWIDTH_HZ, REF_N_SC, REF_N_CP)


@pytest.fixture
def ref_plan():
    return partition(1024, 800, 224)


class TestNumerology:
    def test_reference_values_exact(self, ref_num):
        assert ref_num.subcarrier_spacing_hz == 97656.25
        assert ref_num.t_symbol_s == 10.96e-6
        assert ref_num.cp_overhead == pytest.approx(0.9343065693430657, rel=1e-12)

    def test_zero_cp(self):
        num = numerology(REF_BANDWIDTH_HZ, REF_N_SC, 0)
        assert num.t_symbol_s == 10.24e-6
        assert num.cp_overhead == 1.0

    def test_bandwidth_scaling(self, ref_num):
        double = numerology(2e8, REF_N_SC, REF_N_CP)
        assert double.subcarrier_spacing_hz == 2.0 * ref_num.subcarrier_spacing_hz
        assert double.t_symbol_s == pytest.approx(ref_num.t_symbol_s / 2.0, rel=1e-12)

    def test_sample_count_identity_reference_exact(self, ref_num):
        assert ref_num.t_symbol_s * ref_num.bandwidth_hz == REF_N_SC + REF_N_CP

    @pytest.mark.parametrize("bw", [1e6, 2e7, 30.72e6, 1e8, 5e9])
    @pytest.mark.parametrize("n_sc,n_cp", [(64, 16), (256, 72), (600, 144), (2048, 0)])
    def test_sample_count_identity_general(self, bw, n_sc, n_cp):
        num = numerology(bw, n_sc, n_cp)
        assert num.t_symbol_s * bw == pytest.approx(n_sc + n_cp, rel=1e-12)

    @pytest.mark.parametrize(
        "bw,n_sc,n_cp",
        [(0.0, 1024, 72), (-1e8, 1024, 72), (math.nan, 1024, 72), (math.inf, 1024, 72), (1e8, 0, 72), (1e8, 1024, -1)],
    )
    def test_domain_errors(self, bw, n_sc, n_cp):
        with pytest.raises(DomainError):
            numerology(bw, n_sc, n_cp)

    def test_subcarrier_count_boundary(self):
        with pytest.raises(DomainError, match="^n_subcarriers must be >= 1$"):
            numerology(REF_BANDWIDTH_HZ, 0, REF_N_CP)
        assert numerology(REF_BANDWIDTH_HZ, 1, 0).subcarrier_spacing_hz == REF_BANDWIDTH_HZ


class TestPartition:
    def test_reference_split(self, ref_plan):
        assert ref_plan.data_fraction == 0.78125
        assert ref_plan.sense_fraction == 0.21875

    def test_all_data(self):
        plan = partition(1024, 1024, 0)
        assert plan.n_sense == 0
        assert plan.data_fraction == 1.0

    @pytest.mark.parametrize("n_sense", [225, 300])
    def test_overflow_message_states_the_sum(self, n_sense):
        with pytest.raises(DomainError) as error:
            partition(1024, 800, n_sense)
        assert str(error.value) == f"n_data + n_sense = {800 + n_sense} exceeds n_total = 1024"

    def test_total_count_boundary(self):
        with pytest.raises(DomainError, match="^n_total must be >= 1$"):
            partition(0, 0, 0)
        with pytest.raises(DomainError, match="^subcarrier counts must be >= 0$"):
            partition(10, -1, 2)
        with pytest.raises(DomainError, match="^subcarrier counts must be >= 0$"):
            partition(10, 2, -1)
        assert partition(1, 0, 1).sense_fraction == 1.0

    @pytest.mark.parametrize("n_total,n_data,n_sense", [(1024, 800, 224), (1024, 500, 100), (64, 0, 64), (100, 33, 33)])
    def test_fractions_sum_to_one(self, n_total, n_data, n_sense):
        plan = partition(n_total, n_data, n_sense)
        total = plan.data_fraction + plan.sense_fraction + (n_total - n_data - n_sense) / n_total
        assert total == pytest.approx(1.0, abs=1e-12)


class TestSensingRmsBandwidth:
    def test_two_tones_at_band_edges(self, ref_num):
        plan = partition(1024, 800, 2)
        assert sensing_rms_bandwidth(plan, ref_num) == pytest.approx(5e7, rel=1e-12)

    def test_comb_density_insensitive(self, ref_num):
        rms_224 = sensing_rms_bandwidth(partition(1024, 800, 224), ref_num)
        rms_448 = sensing_rms_bandwidth(partition(1024, 500, 448), ref_num)
        assert abs(rms_448 - rms_224) / rms_224 < 0.01

    def test_block_edge_beats_uniform_comb(self, ref_plan, ref_num):
        comb = sensing_rms_bandwidth(ref_plan, ref_num, TonePlacement.COMB_UNIFORM)
        block = sensing_rms_bandwidth(ref_plan, ref_num, TonePlacement.BLOCK_EDGE)
        assert block > comb

    def test_too_few_tones(self, ref_num):
        with pytest.raises(DomainError):
            sensing_rms_bandwidth(partition(1024, 800, 1), ref_num)


def explicit_tones(bandwidth_hz: float, n_subcarriers: int, n: int, placement: TonePlacement) -> list:
    """The n sensing-tone offsets (Hz) from band centre, built tone by tone."""
    half = bandwidth_hz / 2.0
    if placement is TonePlacement.COMB_UNIFORM:
        step = bandwidth_hz / (n - 1)
        return [-half + i * step for i in range(n)]
    spacing = bandwidth_hz / n_subcarriers
    return [-half + i * spacing for i in range(n // 2)] + [half - i * spacing for i in range(n - n // 2)]


def exact_mean_square(bandwidth_hz: float, n_subcarriers: int, n: int, placement: TonePlacement) -> Fraction:
    """Mean squared tone offset as an exact rational; for few tones it is
    summed over the exact offsets, which checks the closed form itself."""
    b, big_n = Fraction(bandwidth_hz), n_subcarriers
    if n <= 64:
        if placement is TonePlacement.COMB_UNIFORM:
            offsets = [b * (Fraction(i, n - 1) - Fraction(1, 2)) for i in range(n)]
        else:
            low = [b * (Fraction(i, big_n) - Fraction(1, 2)) for i in range(n // 2)]
            offsets = low + [b * (Fraction(1, 2) - Fraction(i, big_n)) for i in range(n - n // 2)]
        return sum(f * f for f in offsets) / n
    if placement is TonePlacement.COMB_UNIFORM:
        return b * b * Fraction(n + 1, 12 * (n - 1))

    def s(m):
        return 3 * m * big_n**2 - 6 * m * (m - 1) * big_n + 2 * (m - 1) * m * (2 * m - 1)

    return b * b * Fraction(s(n // 2) + s(n - n // 2), 12 * big_n**2 * n)


@st.composite
def tone_sets(draw):
    n_subcarriers = draw(st.integers(2, 4096) | st.integers(2, 10**40))
    n = draw(st.integers(2, min(n_subcarriers, 4096)) | st.integers(2, n_subcarriers))
    return draw(st.floats(1e-300, 1e300)), n_subcarriers, n, draw(st.sampled_from(TonePlacement))


@settings(max_examples=500, deadline=None)
@given(tones=tone_sets())
def test_rms_bandwidth_is_the_correctly_rounded_exact_value(tones):
    bandwidth_hz, n_subcarriers, n, placement = tones
    value = sensing_rms_bandwidth(partition(n_subcarriers, 0, n), numerology(bandwidth_hz, n_subcarriers, 0), placement)
    if value < sys.float_info.min:  # a subnormal result may round twice
        return
    mean_square = exact_mean_square(bandwidth_hz, n_subcarriers, n, placement)
    root = Fraction(math.isqrt(mean_square.numerator), math.isqrt(mean_square.denominator))
    if root * root == mean_square:  # a rational root can sit exactly on a rounding tie
        expected = float(root)
    else:
        with localcontext() as ctx:
            ctx.prec = 60
            expected = float((Decimal(mean_square.numerator) / Decimal(mean_square.denominator)).sqrt())
    assert value == expected
    if n <= 4096 and 1e-100 <= bandwidth_hz <= 1e100:  # squares neither overflow nor underflow
        brute = math.sqrt(math.fsum(f * f for f in explicit_tones(bandwidth_hz, n_subcarriers, n, placement)) / n)
        assert abs(value - brute) <= 2 * math.ulp(value)


class TestSymbolsIn:
    def test_zero_window(self, ref_num):
        assert symbols_in(0.0, ref_num) == 0

    def test_single_symbol_boundary(self, ref_num):
        assert symbols_in(ref_num.t_symbol_s, ref_num) == 1

    def test_monotone_nondecreasing(self, ref_num):
        windows = [i * 1e-4 for i in range(200)]
        counts = [symbols_in(t, ref_num) for t in windows]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_negative_window_rejected(self, ref_num):
        with pytest.raises(DomainError):
            symbols_in(-1e-3, ref_num)

    def test_overflowing_ratio_rejected(self, ref_num):
        with pytest.raises(DomainError, match="^t_integration_s / t_symbol overflows the floating-point range$"):
            symbols_in(1e308, ref_num)
