"""UAV mobility and the direct air-to-ground (A2G) link model: the LoS-
dependent pathloss, the Shannon-bound uplink rate to the ground station and
the VDD transmission delay over that one link (no air-to-air link or relay
selection).  All functions are pure; dBm quantities are converted to watts
once, and all SNR algebra runs in the linear domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Position3D",
    "MobilityConfig",
    "ChannelParams",
    "dbm_to_watt",
    "advance",
    "los_probability",
    "a2g_pathloss",
    "a2g_rate",
    "transmission_delay",
]

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError("coordinates must be finite")
        if self.z < 0:
            raise ValueError(f"altitude must be >= 0, got {self.z}")

    def distance_to(self, other: "Position3D") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))

    def horizontal_distance_to(self, other: "Position3D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class MobilityConfig:
    """Slotted-time kinematics: slot length (s) and per-UAV speed cap (m/s)."""

    slot_length: float = 1.0
    v_max: float = 20.0

    def __post_init__(self) -> None:
        if self.slot_length <= 0:
            raise ValueError("slot_length must be > 0")
        if self.v_max <= 0:
            raise ValueError("v_max must be > 0")


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
        if self.bw_a2g <= 0:
            raise ValueError("bw_a2g must be > 0")
        if self.logit_b <= 0:
            raise ValueError("logit_b must be > 0")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier_hz must be finite and > 0, got {self.carrier_hz}")
        for key in ("tx_power_dbm", "noise_dbm"):
            dbm = getattr(self, key)
            try:
                watts = dbm_to_watt(dbm)
            except OverflowError:
                watts = math.inf
            if not 0.0 < watts < math.inf:
                raise ValueError(f"{key} must give a finite power > 0 W, got {dbm} dBm")

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watt(self.tx_power_dbm)

    @property
    def noise_w(self) -> float:
        return dbm_to_watt(self.noise_dbm)


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def advance(p: Position3D, v: float, direction: Sequence[float], cfg: MobilityConfig) -> Position3D:
    """One slot of motion: displacement v * slot_length along a unit vector.

    Rejects speeds above the cap and non-unit directions, so the per-slot
    displacement bound ||l(t+1) - l(t)|| <= slot_length * v_max always holds.
    """
    if v < 0 or v > cfg.v_max + _UNIT_TOL:
        raise ValueError(f"speed {v} outside [0, {cfg.v_max}]")
    norm = math.sqrt(sum(c * c for c in direction))
    if abs(norm - 1.0) > _UNIT_TOL:
        raise ValueError(f"direction must be a unit vector, |dir| = {norm}")
    step = v * cfg.slot_length
    return Position3D(
        p.x + step * direction[0],
        p.y + step * direction[1],
        p.z + step * direction[2],
    )


def los_probability(elevation_rad: float, params: ChannelParams | None = None) -> float:
    """Probability of a line-of-sight ground link, a logistic curve in the
    elevation angle (radians in, converted to degrees internally)."""
    p = params or ChannelParams()
    theta_deg = math.degrees(elevation_rad)
    return 1.0 / (1.0 + p.logit_a * math.exp(-p.logit_b * (theta_deg - p.logit_a)))


def a2g_pathloss(uav: Position3D, params: ChannelParams, horiz_dist: float) -> float:
    """Average UAV-to-ground pathloss in dB: free-space term over the
    horizontal distance plus LoS/NLoS-weighted extra attenuation."""
    if horiz_dist <= 0:
        raise ValueError(f"horizontal distance must be > 0, got {horiz_dist}")
    elevation = math.atan2(uav.z - params.gcs_height, horiz_dist)
    p_los = los_probability(elevation, params)
    fspl = 20.0 * math.log10(4.0 * math.pi * horiz_dist * params.carrier_hz / SPEED_OF_LIGHT)
    return fspl + p_los * params.atten_los + (1.0 - p_los) * params.atten_nlos


def a2g_rate(uav: Position3D, params: ChannelParams, horiz_dist: float) -> float:
    """Shannon rate of the uplink to the ground station, bits/s.  Each UAV
    has an orthogonal sub-channel, so there is no inter-UAV interference."""
    pl_db = a2g_pathloss(uav, params, horiz_dist)
    snr = params.tx_power_w * 10.0 ** (-pl_db / 10.0) / params.noise_w
    return params.bw_a2g * math.log2(1.0 + snr)


def transmission_delay(s_bytes: float, rate: float) -> float:
    """Seconds to push ``s_bytes`` over one link of ``rate`` bits/s.  Linear
    in the payload size."""
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    return 8.0 * s_bytes / rate
