"""UAV mobility and air-to-air / air-to-ground link models.

Produces Shannon-bound data rates, the line-of-sight-dependent A2G pathloss,
and VDD transmission delays with direct-vs-relay mode selection.  All
functions are pure; dBm quantities are converted to watts once, and all SNR
algebra runs in the linear domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Position3D",
    "MobilityConfig",
    "ChannelParams",
    "LinkEnvironment",
    "dbm_to_watt",
    "advance",
    "a2a_rate",
    "los_probability",
    "a2g_pathloss",
    "a2g_rate",
    "transmission_delay",
    "select_mode",
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

    pathloss_exp: float = 2.0
    atten_los: float = 1.0        # dB
    atten_nlos: float = 20.0      # dB
    logit_a: float = 12.0
    logit_b: float = 0.135
    carrier_hz: float = 2.4e9
    light_speed: float = SPEED_OF_LIGHT
    gcs_height: float = 1.5       # m
    bw_a2a: float = 0.25e6        # Hz
    bw_a2g: float = 1.0e6         # Hz
    tx_power_dbm: float = 23.0
    noise_dbm: float = -96.0

    def __post_init__(self) -> None:
        if self.bw_a2a <= 0 or self.bw_a2g <= 0:
            raise ValueError("bandwidths must be > 0")
        if self.logit_b <= 0:
            raise ValueError("logit_b must be > 0")

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


def a2a_rate(
    i_pos: Position3D,
    k_pos: Position3D,
    interferers: Sequence[tuple[Position3D, float]],
    params: ChannelParams,
) -> float:
    """Shannon rate of the inter-UAV link, bits/s.

    The distance-power term d^-iota acts as a linear gain inside the SINR.
    ``interferers`` lists other transmitters as (position, tx power dBm).
    """
    d = i_pos.distance_to(k_pos)
    if d <= 0:
        raise ValueError("transmitter and receiver positions coincide")
    signal = params.tx_power_w * d ** (-params.pathloss_exp)
    interference = 0.0
    for pos, power_dbm in interferers:
        dl = pos.distance_to(k_pos)
        if dl <= 0:
            raise ValueError("interferer placed on top of the receiver")
        interference += dbm_to_watt(power_dbm) * dl ** (-params.pathloss_exp)
    sinr = signal / (interference + params.noise_w)
    return params.bw_a2a * math.log2(1.0 + sinr)


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
    fspl = 20.0 * math.log10(4.0 * math.pi * horiz_dist * params.carrier_hz / params.light_speed)
    return fspl + p_los * params.atten_los + (1.0 - p_los) * params.atten_nlos


def a2g_rate(uav: Position3D, params: ChannelParams, horiz_dist: float) -> float:
    """Shannon rate of the uplink to the ground station, bits/s.  Each UAV
    has an orthogonal sub-channel, so there is no inter-UAV interference."""
    pl_db = a2g_pathloss(uav, params, horiz_dist)
    snr = params.tx_power_w * 10.0 ** (-pl_db / 10.0) / params.noise_w
    return params.bw_a2g * math.log2(1.0 + snr)


def transmission_delay(s_bytes: float, *hop_rates: float) -> float:
    """Seconds to push ``s_bytes`` through the given hops in sequence
    (one rate = direct, two = relay).  Linear in the payload size."""
    if not hop_rates:
        raise ValueError("at least one hop rate required")
    total = 0.0
    for rate in hop_rates:
        if rate <= 0:
            raise ValueError(f"hop rate must be > 0, got {rate}")
        total += 8.0 * s_bytes / rate
    return total


@dataclass(frozen=True)
class LinkEnvironment:
    """Immutable snapshot of the radio scene: ground-station position and
    channel constants.  Rates derived from it may be evaluated concurrently."""

    gcs_position: Position3D
    params: ChannelParams = ChannelParams()

    def rate_to_gcs(self, uav: Position3D) -> float:
        d = uav.horizontal_distance_to(self.gcs_position)
        return a2g_rate(uav, self.params, d)

    def rate_between(self, a: Position3D, b: Position3D) -> float:
        return a2a_rate(a, b, (), self.params)


def select_mode(
    uav: Position3D,
    neighbors: Sequence[Position3D],
    env: LinkEnvironment,
) -> tuple[str, int | None]:
    """Pick the delay-minimizing upload mode.

    Returns ("direct", None) or ("relay", neighbor index).  Delay is linear
    in the payload, so the choice compares per-byte hop times; ties go to
    direct.
    """
    direct_cost = 1.0 / env.rate_to_gcs(uav)
    best = ("direct", None)
    best_cost = direct_cost
    for idx, n in enumerate(neighbors):
        cost = 1.0 / env.rate_between(uav, n) + 1.0 / env.rate_to_gcs(n)
        if cost < best_cost:
            best_cost = cost
            best = ("relay", idx)
    return best
