"""Rate, delay-bound, range-error and feasibility mappings."""

import math

import pytest

from jcaslink.errors import DomainError
from jcaslink.performance import (
    delay_stage,
    detection_feasible,
    ici_effective_snr_db,
    range_mse,
    rate_stage,
)
from jcaslink.waveform import numerology, partition

REF_SNR_DB = 29.59578550945929  # reference comm budget at 9 dBW


@pytest.fixture
def ref_num():
    return numerology(1e8, 1024, 72)


@pytest.fixture
def ref_plan():
    return partition(1024, 800, 224)


class TestAchievableRate:
    def test_reference_shannon_rate(self, ref_plan, ref_num):
        # oracle: 0.78125 * (10.24/10.96) * 1e8 * log2(1 + 10^2.9596)
        shannon, _ = rate_stage(ref_plan, ref_num)(REF_SNR_DB)
        assert shannon == pytest.approx(717743772.89121, rel=1e-9)
        assert shannon == pytest.approx(7.18e8, rel=0.01)

    def test_qpsk_cap(self, ref_plan, ref_num):
        # 800 data subcarriers * 2 bit / 10.96 us
        _, capped = rate_stage(ref_plan, ref_num)(60.0)
        assert capped == pytest.approx(145985401.459854, rel=1e-9)
        assert capped == pytest.approx(1.4599e8, rel=1e-3)

    def test_cap_is_min_of_both(self, ref_plan, ref_num):
        shannon, capped = rate_stage(ref_plan, ref_num)(REF_SNR_DB)
        assert capped == min(shannon, 145985401.459854)

    def test_vanishing_snr(self, ref_plan, ref_num):
        shannon, capped = rate_stage(ref_plan, ref_num)(-300.0)
        assert 0.0 <= shannon < 1e-12
        assert capped == shannon

    def test_strictly_increasing_in_snr(self, ref_plan, ref_num):
        grid = [-20.0 + i * 2.5 for i in range(25)]
        rates = [rate_stage(ref_plan, ref_num)(s)[0] for s in grid]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_nonfinite_snr_rejected(self, ref_plan, ref_num):
        with pytest.raises(DomainError):
            rate_stage(ref_plan, ref_num)(math.nan)


class TestDelayCrlb:
    def test_reference_value(self):
        # oracle: 1 / (8 pi^2 * (28.87 MHz)^2 * 1)
        assert delay_stage(28.87e6)(0.0) == pytest.approx(1.5195559655333245e-17, rel=1e-9)

    def test_inverse_snr_law(self):
        assert delay_stage(28.87e6)(10.0) == pytest.approx(delay_stage(28.87e6)(0.0) / 10.0, rel=1e-9)

    def test_inverse_square_bandwidth_law(self):
        assert delay_stage(2 * 28.87e6)(0.0) == pytest.approx(delay_stage(28.87e6)(0.0) / 4.0, rel=1e-9)

    def test_rmse_halves_per_six_db(self):
        # +6.0206 dB quadruples the linear SNR, halving the RMS delay error
        lo = math.sqrt(delay_stage(28.87e6)(0.0))
        hi = math.sqrt(delay_stage(28.87e6)(6.0205999132796239))
        assert hi == pytest.approx(lo / 2.0, rel=1e-9)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(DomainError, match="^rms_bandwidth_hz must be > 0$"):
            delay_stage(0.0)(0.0)


class TestRangeMse:
    def test_reference_mapping(self):
        mse, rmse = range_mse(1.5195559655333245e-17)
        assert mse == pytest.approx(1.3657087934035006, rel=1e-9)
        assert rmse == pytest.approx(1.168635440761361, rel=1e-9)
        assert mse == pytest.approx(1.366, rel=0.01)
        assert rmse == pytest.approx(1.17, rel=0.01)

    def test_zero(self):
        assert range_mse(0.0) == (0.0, 0.0)

    def test_linearity(self):
        mse1, _ = range_mse(1e-17)
        mse4, _ = range_mse(4e-17)
        assert mse4 == pytest.approx(4.0 * mse1, rel=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            range_mse(-1e-18)


class TestDetectionFeasible:
    def test_reference_bistatic_point_below_threshold(self):
        assert detection_feasible(3.1, 10.0) is False

    def test_threshold_inclusive(self):
        assert detection_feasible(10.0, 10.0) is True

    def test_monostatic_reference_point(self):
        assert detection_feasible(-40.69, 10.0) is False


class TestIciPenalty:
    def test_zero_doppler_is_identity(self):
        assert ici_effective_snr_db(25.0, 0.0, 97656.25) == 25.0

    def test_penalty_reduces_snr(self):
        assert ici_effective_snr_db(25.0, 10e3, 97656.25) < 25.0

    def test_penalty_grows_with_offset(self):
        a = ici_effective_snr_db(25.0, 5e3, 97656.25)
        b = ici_effective_snr_db(25.0, 40e3, 97656.25)
        assert b < a

    def test_interference_floor_at_high_snr(self):
        # once interference dominates, more transmit power stops helping
        hi = ici_effective_snr_db(80.0, 40e3, 97656.25)
        hi2 = ici_effective_snr_db(100.0, 40e3, 97656.25)
        assert hi2 - hi < 0.1

    def test_zero_spacing_rejected(self):
        with pytest.raises(DomainError, match="^subcarrier_spacing_hz must be > 0$"):
            ici_effective_snr_db(25.0, 10e3, 0.0)

    def test_null_offset_is_catastrophic(self):
        # offset of exactly one subcarrier spacing lands on the sinc null;
        # float sin(pi) leaves a ~1e-33 residue, so expect a huge penalty
        assert ici_effective_snr_db(25.0, 97656.25, 97656.25) < -200.0
