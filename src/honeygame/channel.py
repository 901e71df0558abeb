"""The direct air-to-ground (A2G) link model: the LoS-dependent pathloss,
the Shannon-bound uplink rate to the ground station and the VDD transmission
delay over that one link (no air-to-air link or relay selection).  A UAV
enters only through its altitude and its horizontal distance to the ground
station.  The formulas take columns of UAVs (``a2g_rate`` wraps one UAV's).
All functions are pure; dBm quantities are converted to watts, and all SNR
algebra runs in the linear domain.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ChannelParams",
    "dbm_to_watt",
    "los_probabilities",
    "a2g_pathlosses",
    "a2g_rate",
    "a2g_rates",
    "transmission_delay",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class ChannelParams:
    """Link-budget constants.

    The LoS logistic parameters are calibrated for elevation angles in
    degrees; elevation computed in radians is converted before use.
    """

    atten_los: float = 1.0        # dB
    atten_nlos: float = 20.0      # dB
    logit_a: float = 12.0
    logit_b: float = 0.135
    carrier_hz: float = 2.4e9
    gcs_height: float = 1.5       # m
    bw_a2g: float = 1.0e6         # Hz
    tx_power_dbm: float = 23.0
    noise_dbm: float = -96.0

    def __post_init__(self) -> None:
        for key in ("atten_los", "atten_nlos", "logit_a", "gcs_height"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"channel.{key} must be finite and >= 0, got {value}")
        for key in ("logit_b", "carrier_hz", "bw_a2g"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"channel.{key} must be finite and > 0, got {value}")
        for key in ("tx_power_dbm", "noise_dbm"):
            dbm = getattr(self, key)
            if not 0.0 < dbm_to_watt(dbm) < math.inf:
                raise ValueError(f"channel.{key} must give a finite power > 0 W, got {dbm} dBm")

    @cached_property
    def tx_power_w(self) -> float:
        return dbm_to_watt(self.tx_power_dbm)

    @cached_property
    def noise_w(self) -> float:
        return dbm_to_watt(self.noise_dbm)


def dbm_to_watt(dbm: float) -> float:
    return _power_of_ten((dbm - 30.0) / 10.0)


def _power_of_ten(exponent: float) -> float:
    """``10.0 ** exponent``, or inf where that passes the float range."""
    try:
        return 10.0 ** exponent
    except OverflowError:
        return math.inf


def _each(function, *columns) -> np.ndarray:
    """The scalar ``function`` (a ``math`` call, whose libm rounding numpy's
    ufuncs need not share) applied to each row of the columns."""
    rows = map(function, *(np.asarray(c, dtype=float).tolist() for c in columns))
    return np.fromiter(rows, dtype=float, count=len(columns[0]))


# ``math.degrees(x)`` is ``x`` times this constant
_DEGREES_PER_RADIAN = math.degrees(1.0)

# the largest x for which ``math.exp(x)`` does not overflow
_EXP_MAX = math.log(sys.float_info.max)

# the column functions below run plain arithmetic as numpy ufuncs, in
# Python's order of evaluation, and keep ``atan2``, ``exp``, ``log10``,
# ``10.0 **`` and ``log2`` the scalar calls, so that each row has the bits
# of the one-UAV formula; an overflow gives inf, as it does in Python float
# arithmetic (and in ``_power_of_ten``)
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def los_probabilities(elevation_rad, params: ChannelParams) -> np.ndarray:
    """Probability of a line-of-sight ground link for each of a column of
    elevation angles: a logistic curve in the angle (radians in, converted
    to degrees internally)."""
    theta_deg = np.asarray(elevation_rad, dtype=float) * _DEGREES_PER_RADIAN
    # where ``exp`` would overflow, the logistic is at its limit: the largest
    # float odds give P_LoS ~ 0 (1 when logit_a is 0)
    exponent = np.minimum(-params.logit_b * (theta_deg - params.logit_a), _EXP_MAX)
    return 1.0 / (1.0 + params.logit_a * _each(math.exp, exponent))


@_quiet
def a2g_pathlosses(altitudes, params: ChannelParams, horiz_dists) -> np.ndarray:
    """Average pathloss in dB from UAVs at ``altitudes`` metres to the ground
    station ``horiz_dists`` metres away, row by row: free-space term over
    the horizontal distance plus LoS/NLoS-weighted extra attenuation."""
    d = np.asarray(horiz_dists, dtype=float)
    if (d <= 0).any():
        raise ValueError(f"horizontal distance must be > 0, got {d[d <= 0][0]}")
    elevation = _each(math.atan2, np.asarray(altitudes, dtype=float) - params.gcs_height, d)
    p_los = los_probabilities(elevation, params)
    fspl = 20.0 * _each(math.log10, 4.0 * math.pi * d * params.carrier_hz / SPEED_OF_LIGHT)
    return fspl + p_los * params.atten_los + (1.0 - p_los) * params.atten_nlos


@_quiet
def a2g_rates(altitudes, params: ChannelParams, horiz_dists) -> np.ndarray:
    """Shannon rate of each UAV's uplink to the ground station, bits/s.  Each
    UAV has an orthogonal sub-channel, so there is no inter-UAV interference."""
    pl_db = a2g_pathlosses(altitudes, params, horiz_dists)
    snr = params.tx_power_w * _each(_power_of_ten, -pl_db / 10.0) / params.noise_w
    return params.bw_a2g * _each(math.log2, 1.0 + snr)


def a2g_rate(altitude: float, params: ChannelParams, horiz_dist: float) -> float:
    """:func:`a2g_rates` of one UAV."""
    return float(a2g_rates([altitude], params, [horiz_dist])[0])


@_quiet
def transmission_delay(s_bytes: float, rate):
    """Seconds to push ``s_bytes`` over a link of ``rate`` bits/s, or over
    each of a column of rates.  Linear in the payload size."""
    low = np.min(rate, initial=math.inf)
    if low <= 0:
        raise ValueError(f"rate must be > 0, got {low}")
    return 8.0 * s_bytes / rate
