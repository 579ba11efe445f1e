"""Rate, delay-bound, range-error and feasibility mappings."""

import math

import pytest

from jcaslink.errors import DomainError
from jcaslink.performance import PerformanceResult, performance_stage
from jcaslink.waveform import numerology, partition

REF_SNR_DB = 29.59578550945929  # reference comm budget at 9 dBW
REF_BRMS_HZ = 28.87e6


@pytest.fixture
def ref_stage():
    """(rms_bandwidth_hz, threshold_db) -> grid stage at the reference plan and numerology."""
    plan, num = partition(1024, 800, 224), numerology(1e8, 1024, 72)
    return lambda brms=REF_BRMS_HZ, threshold_db=10.0: performance_stage(plan, num, brms, threshold_db)


@pytest.fixture
def perf_at(ref_stage):
    """The PerformanceResult of one point: comm SNR, post-integration SNR,
    RMS bandwidth and detection threshold."""

    def at(comm_snr_db=REF_SNR_DB, post_snr_db=0.0, brms=REF_BRMS_HZ, threshold_db=10.0):
        (result,) = map(PerformanceResult, *ref_stage(brms, threshold_db)((comm_snr_db,), (post_snr_db,)).values())
        return result

    return at


class TestAchievableRate:
    def test_reference_shannon_rate(self, perf_at):
        # oracle: 0.78125 * (10.24/10.96) * 1e8 * log2(1 + 10^2.9596)
        shannon = perf_at(REF_SNR_DB).shannon_rate_bps
        assert shannon == pytest.approx(717743772.89121, rel=1e-9)
        assert shannon == pytest.approx(7.18e8, rel=0.01)

    def test_qpsk_cap(self, perf_at):
        # 800 data subcarriers * 2 bit / 10.96 us
        capped = perf_at(60.0).qpsk_capped_rate_bps
        assert capped == pytest.approx(145985401.459854, rel=1e-9)
        assert capped == pytest.approx(1.4599e8, rel=1e-3)

    def test_cap_is_min_of_both(self, perf_at):
        result = perf_at(REF_SNR_DB)
        shannon, capped = result.shannon_rate_bps, result.qpsk_capped_rate_bps
        assert capped == min(shannon, 145985401.459854)

    def test_vanishing_snr(self, perf_at):
        result = perf_at(-300.0)
        shannon, capped = result.shannon_rate_bps, result.qpsk_capped_rate_bps
        assert 0.0 <= shannon < 1e-12
        assert capped == shannon

    def test_strictly_increasing_in_snr(self, ref_stage):
        grid = [-20.0 + i * 2.5 for i in range(25)]
        rates = ref_stage()(grid, [0.0] * len(grid))["shannon_rate_bps"]
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestDelayCrlb:
    def test_reference_value(self, perf_at):
        # oracle: 1 / (8 pi^2 * (28.87 MHz)^2 * 1)
        assert perf_at(post_snr_db=0.0).delay_variance_s2 == pytest.approx(1.5195559655333245e-17, rel=1e-9)

    def test_inverse_snr_law(self, perf_at):
        assert perf_at(post_snr_db=10.0).delay_variance_s2 == pytest.approx(
            perf_at(post_snr_db=0.0).delay_variance_s2 / 10.0, rel=1e-9
        )

    def test_inverse_square_bandwidth_law(self, perf_at):
        assert perf_at(brms=2 * 28.87e6).delay_variance_s2 == pytest.approx(
            perf_at(brms=28.87e6).delay_variance_s2 / 4.0, rel=1e-9
        )

    def test_rmse_halves_per_six_db(self, perf_at):
        # +6.0206 dB quadruples the linear SNR, halving the RMS delay error
        lo = math.sqrt(perf_at(post_snr_db=0.0).delay_variance_s2)
        hi = math.sqrt(perf_at(post_snr_db=6.0205999132796239).delay_variance_s2)
        assert hi == pytest.approx(lo / 2.0, rel=1e-9)

    def test_nonpositive_bandwidth_rejected(self, ref_stage):
        with pytest.raises(DomainError, match="^rms_bandwidth_hz must be > 0$"):
            ref_stage(0.0)


class TestRangeMse:
    def test_reference_mapping(self, perf_at):
        # the variance of TestDelayCrlb.test_reference_value, 1.5195559655333245e-17 s^2
        result = perf_at(post_snr_db=0.0)
        mse, rmse = result.range_mse_m2, result.range_rmse_m
        assert mse == pytest.approx(1.3657087934035006, rel=1e-9)
        assert rmse == pytest.approx(1.168635440761361, rel=1e-9)
        assert mse == pytest.approx(1.366, rel=0.01)
        assert rmse == pytest.approx(1.17, rel=0.01)

    def test_linearity(self, perf_at):
        # doubling Brms quarters the delay variance exactly
        mse1 = perf_at(brms=2 * REF_BRMS_HZ).range_mse_m2
        mse4 = perf_at(brms=REF_BRMS_HZ).range_mse_m2
        assert mse4 == pytest.approx(4.0 * mse1, rel=1e-12)


# The reference bistatic point, the threshold itself (inclusive) and the monostatic reference point.
@pytest.mark.parametrize(
    "post_snr_db, feasible", [(3.1, False), (10.0, True), (-40.69, False)], ids=["bistatic", "threshold", "monostatic"]
)
def test_detection_feasible_from_the_threshold_up(perf_at, post_snr_db, feasible):
    assert perf_at(post_snr_db=post_snr_db, threshold_db=10.0).detection_feasible is feasible


# Checks run in the order delay, range, rate, feasibility, so a point with
# several faults reports the first.
@pytest.mark.parametrize(
    "comm_snr_db, post_snr_db, threshold_db, message",
    [
        (math.nan, math.nan, math.inf, "post_snr_db must be finite"),
        (math.nan, 4000.0, math.inf, "4000.0 dB overflows the linear scale"),
        (math.nan, -4000.0, math.inf, "8 pi^2 Brms^2 snr underflows to 0; the delay bound is unbounded"),
        (math.nan, -3085.0, math.inf, "c^2 * delay_variance_s2 overflows the floating-point range"),
        (math.nan, 0.0, math.inf, "snr_db must be finite"),
        (4000.0, 0.0, math.inf, "4000.0 dB overflows the linear scale"),
        (0.0, 0.0, math.inf, "threshold_db must be finite"),
        (math.nan, 0.0, 10.0, "snr_db must be finite"),
        (REF_SNR_DB, -3085.0, 10.0, "c^2 * delay_variance_s2 overflows the floating-point range"),
    ],
)
def test_point_checks_run_in_order(perf_at, comm_snr_db, post_snr_db, threshold_db, message):
    with pytest.raises(DomainError) as error:
        perf_at(comm_snr_db, post_snr_db, threshold_db=threshold_db)
    assert str(error.value) == message


# A column's overflow message names the value that overflowed, not the
# column's first value.
@pytest.mark.parametrize("comm_snrs, post_snrs", [((0.0, 0.0), (1.0, 4000.0)), ((1.0, 4000.0), (0.0, 0.0))])
def test_column_overflow_names_the_offending_value(ref_stage, comm_snrs, post_snrs):
    with pytest.raises(DomainError, match=r"^4000\.0 dB overflows the linear scale$"):
        ref_stage()(comm_snrs, post_snrs)


# Each finiteness and overflow check sums its column before it scans it. Two
# finite terms whose sum overflows must still evaluate: 2911.8 dB gives two
# information terms near 1e308, -3078.5 dB two range errors near 9.7e307.
@pytest.mark.parametrize("post_snr_db", [2911.8, -3078.5])
def test_finite_column_whose_sum_overflows_evaluates(ref_stage, post_snr_db):
    result = ref_stage()((0.0, 0.0), (post_snr_db, post_snr_db))
    information, mse = [1.0 / v for v in result["delay_variance_s2"]], result["range_mse_m2"]
    assert math.inf in (sum(information), sum(mse))
    assert all(map(math.isfinite, information + mse))


# 1e308 dB is finite, so a column of two is past the finiteness check though
# its sum is not, and fails where the dB value meets the linear scale.
@pytest.mark.parametrize("comm_snrs, post_snrs", [((0.0, 0.0), (1e308, 1e308)), ((1e308, 1e308), (0.0, 0.0))])
def test_finite_column_whose_sum_overflows_reaches_the_linear_scale(ref_stage, comm_snrs, post_snrs):
    with pytest.raises(DomainError) as error:
        ref_stage()(comm_snrs, post_snrs)
    assert str(error.value) == "1e+308 dB overflows the linear scale"
