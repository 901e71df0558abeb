"""Channel model tests.

Golden values were frozen from an independent 50-digit evaluation of the
link-budget formulas (mpmath) at the default parameter set.
"""

import math

import numpy as np
import pytest

from honeygame.channel import (
    ChannelParams,
    a2g_pathloss,
    a2g_rate,
    dbm_to_watt,
    los_probability,
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
        assert los_probability(math.radians(12.0), PARAMS) == pytest.approx(
            1.0 / 13.0, abs=1e-12
        )

    def test_near_vertical(self):
        assert los_probability(math.radians(90.0), PARAMS) == pytest.approx(
            0.99967943130586627, rel=1e-12
        )

    def test_complement_sums_to_one(self):
        rng = np.random.default_rng(5)
        for theta in rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 1000):
            p = los_probability(theta, PARAMS)
            assert 0.0 < p < 1.0
            assert p + (1.0 - p) == 1.0

    def test_strictly_increasing(self):
        thetas = np.linspace(-1.2, 1.2, 50)
        ps = [los_probability(t, PARAMS) for t in thetas]
        assert all(a < b for a, b in zip(ps, ps[1:]))


class TestA2GLink:
    def test_pathloss_golden(self):
        pl = a2g_pathloss(50.0, PARAMS, 100.0)
        assert pl == pytest.approx(93.371547501440399, rel=1e-12)

    def test_rate_golden(self):
        rate = a2g_rate(50.0, PARAMS, 100.0)
        assert rate == pytest.approx(8517529.8124211289, rel=1e-12)

    def test_equal_attenuation_elevation_free(self):
        params = ChannelParams(atten_los=5.0, atten_nlos=5.0)
        lo = a2g_pathloss(10.0, params, 100.0)
        hi = a2g_pathloss(80.0, params, 100.0)
        assert lo == pytest.approx(hi, rel=1e-12)

    def test_higher_uav_lower_pathloss(self):
        lo = a2g_pathloss(10.0, PARAMS, 100.0)
        hi = a2g_pathloss(80.0, PARAMS, 100.0)
        assert hi < lo

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            a2g_pathloss(50.0, PARAMS, 0.0)


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
