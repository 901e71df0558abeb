"""Channel model tests.

Golden values were frozen from an independent 50-digit evaluation of the
link-budget formulas (mpmath) at the default parameter set.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from honeygame.channel import (
    ChannelParams,
    a2g_pathlosses,
    a2g_rate,
    a2g_rates,
    dbm_to_watt,
    los_probabilities,
    transmission_delay,
)

PARAMS = ChannelParams()


class TestConversions:
    def test_dbm_to_watt(self):
        assert dbm_to_watt(30.0) == pytest.approx(1.0)
        assert dbm_to_watt(0.0) == pytest.approx(1e-3)
        assert dbm_to_watt(23.0) == pytest.approx(10 ** (23 / 10) * 1e-3, rel=1e-12)


class TestLosProbability:
    def test_at_logit_midpoint(self):
        assert los_probabilities([math.radians(12.0)], PARAMS)[0] == pytest.approx(
            1.0 / 13.0, abs=1e-12
        )

    def test_near_vertical(self):
        assert los_probabilities([math.radians(90.0)], PARAMS)[0] == pytest.approx(
            0.99967943130586627, rel=1e-12
        )

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 1000):
            p = los_probabilities([theta], PARAMS)[0]
            assert 0.0 < p < 1.0
            assert p + (1.0 - p) == 1.0

    def test_strictly_increasing(self):
        thetas = np.linspace(-1.2, 1.2, 50)
        ps = [los_probabilities([t], PARAMS)[0] for t in thetas]
        assert all(a < b for a, b in zip(ps, ps[1:]))


class TestA2GLink:
    def test_pathloss_golden(self):
        pl = a2g_pathlosses([50.0], PARAMS, [100.0])[0]
        assert pl == pytest.approx(93.371547501440399, rel=1e-12)

    def test_rate_golden(self):
        rate = a2g_rate(50.0, PARAMS, 100.0)
        assert rate == pytest.approx(8517529.8124211289, rel=1e-12)

    def test_equal_attenuation_elevation_free(self):
        params = ChannelParams(atten_los=5.0, atten_nlos=5.0)
        lo = a2g_pathlosses([10.0], params, [100.0])[0]
        hi = a2g_pathlosses([80.0], params, [100.0])[0]
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_higher_uav_lower_pathloss(self):
        lo = a2g_pathlosses([10.0], PARAMS, [100.0])[0]
        hi = a2g_pathlosses([80.0], PARAMS, [100.0])[0]
        assert hi < lo

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            a2g_pathlosses([50.0], PARAMS, [0.0])[0]


class TestDelay:
    def test_zero_payload(self):
        assert transmission_delay(0.0, 1e6) == 0.0

    def test_direct_300_bytes_at_1mbps(self):
        assert transmission_delay(300.0, 1e6) == pytest.approx(2.4e-3)

    def test_linear_in_payload(self):
        assert transmission_delay(600.0, 5e5) == pytest.approx(
            2 * transmission_delay(300.0, 5e5), rel=1e-12
        )

    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            transmission_delay(300.0, 0.0)


def scalar_los(elevation: float, p: ChannelParams) -> float:
    """The LoS probability in scalar ``math`` and Python floats: the
    reference for the columns, as are the two functions below."""
    return 1.0 / (1.0 + p.logit_a * math.exp(-p.logit_b * (math.degrees(elevation) - p.logit_a)))


def scalar_pathloss(altitude: float, p: ChannelParams, d: float) -> float:
    p_los = scalar_los(math.atan2(altitude - p.gcs_height, d), p)
    fspl = 20.0 * math.log10(4.0 * math.pi * d * p.carrier_hz / 299_792_458.0)
    return fspl + p_los * p.atten_los + (1.0 - p_los) * p.atten_nlos


def scalar_rate(altitude: float, p: ChannelParams, d: float) -> float:
    snr = p.tx_power_w * 10.0 ** (-scalar_pathloss(altitude, p, d) / 10.0) / p.noise_w
    return p.bw_a2g * math.log2(1.0 + snr)


LINKS = st.builds(
    ChannelParams,
    atten_los=st.floats(0.0, 60.0),
    atten_nlos=st.floats(0.0, 60.0),
    logit_a=st.floats(0.0, 40.0),
    logit_b=st.floats(0.01, 2.0),
    carrier_hz=st.floats(1e8, 1e11),
    gcs_height=st.floats(0.0, 100.0),
    bw_a2g=st.floats(1e3, 1e9),
    tx_power_dbm=st.floats(-20.0, 50.0),
    noise_dbm=st.floats(-150.0, -60.0),
)


class TestColumns:
    @given(params=LINKS, uavs=st.lists(st.tuples(st.floats(0.0, 500.0), st.floats(1.0, 1e4)),
                                       max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_rates_bitwise_equal_to_scalar_math(self, params, uavs):
        altitudes, dists = [a for a, _ in uavs], [d for _, d in uavs]
        for column, one, scalar in ((a2g_rates, a2g_rate, scalar_rate),
                                    (a2g_pathlosses,
                                     lambda a, p, d: a2g_pathlosses([a], p, [d])[0],
                                     scalar_pathloss)):
            want = [scalar(a, params, d).hex() for a, d in uavs]
            assert [x.hex() for x in column(altitudes, params, dists).tolist()] == want
            assert [one(a, params, d).hex() for a, d in uavs] == want
        angles = [math.atan2(a, d) for a, d in uavs]
        want = [scalar_los(theta, params).hex() for theta in angles]
        assert [p.hex() for p in los_probabilities(angles, params).tolist()] == want

    def test_column_of_delays(self):
        rates = np.array([1e6, 5e5])
        assert transmission_delay(300.0, rates).tolist() == [2.4e-3, 4.8e-3]
        with pytest.raises(ValueError, match="rate must be > 0, got 0.0"):
            transmission_delay(300.0, np.array([1e6, 0.0]))

    @pytest.mark.parametrize("logit_a, theta_deg, p_los",
                             [(100.0, 0.0, 0.0), (100.0, 20.0, 0.0), (0.0, -80.0, 1.0)])
    def test_overflowing_exp_gives_the_logistic_limit(self, recwarn, logit_a, theta_deg, p_los):
        # exp(-logit_b (theta - logit_a)) past the float range: no line of
        # sight, or a sure one when logit_a is 0, and no warning
        params = ChannelParams(logit_a=logit_a, logit_b=10.0)
        with pytest.raises(OverflowError):
            math.exp(-params.logit_b * (theta_deg - logit_a))
        assert los_probabilities([math.radians(theta_deg)], params)[0] == p_los
        assert not recwarn.list

    def test_overflow_gives_inf_without_warning(self, recwarn):
        # far below the station, logit_a * exp(...) overflows to inf, as on
        # Python floats: no line of sight, and no warning
        theta = math.degrees(math.atan2(0.0 - 100.0, 1.0))
        params = ChannelParams(logit_a=40.0, logit_b=709.0 / (40.0 - theta), gcs_height=100.0)
        assert math.isinf(params.logit_a * math.exp(709.0))
        assert a2g_rate(0.0, params, 1.0).hex() == scalar_rate(0.0, params, 1.0).hex()
        assert a2g_pathlosses([0.0], params, [1.0])[0] == pytest.approx(
            20.0 * math.log10(4.0 * math.pi * params.carrier_hz / 299_792_458.0) + 20.0)
        assert not recwarn.list
